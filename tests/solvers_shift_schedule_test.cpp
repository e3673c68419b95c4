// Tests for the Chebyshev shift schedule of the power loop
// (solvers::run_power_loop, docs/THEORY.md section 5): it must cut the
// products where the fixed shift crawls, survive a bad interval estimate,
// and keep every bit-identity contract of the loop — checkpoint/resume
// mid-cycle, rank counts and engines.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/reduction.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

/// W = H D H / N with H the (symmetric, unnormalised) Walsh-Hadamard
/// matrix: a real spectrum chosen entry by entry, with the uniform vector
/// as the dominant eigenvector.  D: lambda_0 = 1, a cluster of eight just
/// below lambda_2 = 0.99, and the rest spread over [mu, 0.98], mu = 0.1
/// included.
class PrescribedSpectrum final : public core::LinearOperator {
 public:
  static constexpr double kMu = 0.1;

  explicit PrescribedSpectrum(unsigned nu) : n_(std::size_t{1} << nu), d_(n_) {
    d_[0] = 1.0;
    for (std::size_t k = 1; k <= 8; ++k) {
      d_[k] = 0.99 - 1e-4 * static_cast<double>(k - 1);
    }
    for (std::size_t k = 9; k < n_; ++k) {
      d_[k] = kMu + (0.98 - kMu) * static_cast<double>(k - 9) /
                        static_cast<double>(n_ - 10);
    }
  }

  seq_t dimension() const override { return static_cast<seq_t>(n_); }
  std::string_view name() const override { return "prescribed-spectrum"; }
  void apply(std::span<const double> x, std::span<double> y) const override {
    std::copy(x.begin(), x.end(), y.begin());
    hadamard(y);
    for (std::size_t i = 0; i < n_; ++i) y[i] *= d_[i] / static_cast<double>(n_);
    hadamard(y);
  }

 private:
  static void hadamard(std::span<double> v) {
    for (std::size_t h = 1; h < v.size(); h <<= 1) {
      for (std::size_t i = 0; i < v.size(); i += 2 * h) {
        for (std::size_t j = i; j < i + h; ++j) {
          const double a = v[j];
          const double b = v[j + h];
          v[j] = a + b;
          v[j + h] = a - b;
        }
      }
    }
  }

  std::size_t n_;
  std::vector<double> d_;
};

std::vector<double> positive_start(std::size_t n) {
  Xoshiro256 rng(5);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(0.5, 1.5);
  return s;
}

using Stream = std::vector<std::pair<unsigned, double>>;

struct Solve {
  PowerResult result;
  Stream residuals;
};

Solve run(const core::LinearOperator& op, const std::vector<double>& start,
        PowerOptions options) {
  Solve out;
  options.on_residual = [&out](unsigned it, double r) {
    out.residuals.emplace_back(it, r);
  };
  out.result = power_iteration(op, start, options);
  return out;
}

Solve resume(const core::LinearOperator& op, const io::SolverCheckpoint& ck,
           PowerOptions options) {
  Solve out;
  options.on_residual = [&out](unsigned it, double r) {
    out.residuals.emplace_back(it, r);
  };
  out.result = resume_power_iteration(op, ck, options);
  return out;
}

/// The tail of `stream` after iteration `after`.
Stream tail(const Stream& stream, unsigned after) {
  Stream out;
  for (const auto& entry : stream) {
    if (entry.first > after) out.push_back(entry);
  }
  return out;
}

void expect_same_bits(const PowerResult& a, const PowerResult& b) {
  EXPECT_EQ(a.eigenvalue, b.eigenvalue);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.residual, b.residual);
  ASSERT_EQ(a.eigenvector.size(), b.eigenvector.size());
  for (std::size_t i = 0; i < a.eigenvector.size(); ++i) {
    ASSERT_EQ(a.eigenvector[i], b.eigenvector[i]) << "entry " << i;
  }
}

PowerOptions prescribed_options() {
  PowerOptions options;
  options.tolerance = 1e-11;
  options.shift = PrescribedSpectrum::kMu;
  return options;
}

TEST(ShiftSchedule, NeedsAThirdOfTheFixedShiftProductsOnAClusteredSpectrum) {
  const PrescribedSpectrum op(10);
  const auto start = positive_start(1024);

  // Checks every second product keep the fixed shift (the schedule needs
  // a check every product); with no fitness range every product still
  // renormalises, so this is the fixed-shift iteration, rounded up to an
  // even count.
  PowerOptions fixed_options = prescribed_options();
  fixed_options.residual_check_every = 2;
  const PowerResult fixed = power_iteration(op, start, fixed_options);
  ASSERT_TRUE(fixed.converged);
  EXPECT_EQ(fixed.shift_schedule.engaged_at, 0u);

  const PowerResult scheduled = power_iteration(op, start, prescribed_options());
  ASSERT_TRUE(scheduled.converged);
  EXPECT_FALSE(scheduled.stalled);
  EXPECT_GT(scheduled.shift_schedule.engaged_at, 0u);
  EXPECT_EQ(scheduled.shift_schedule.lower, PrescribedSpectrum::kMu);
  EXPECT_LT(scheduled.shift_schedule.upper, 1.0);
  EXPECT_LE(3 * scheduled.iterations, fixed.iterations)
      << "scheduled " << scheduled.iterations << ", fixed " << fixed.iterations;
  EXPECT_NEAR(scheduled.eigenvalue, 1.0, 1e-12);
  EXPECT_NEAR(scheduled.eigenvalue, fixed.eigenvalue, 1e-12);
}

TEST(ShiftSchedule, AnIntervalReachingPastLambda0FallsBackAndStillConverges) {
  const PrescribedSpectrum op(10);
  const auto start = positive_start(1024);

  // A real iterate after a few fixed-shift products, resumed with a
  // schedule whose interval [mu, 1.5] contains lambda_0 = 1: its cycles
  // cannot lower the residual, so the schedule must fall back, estimate
  // the decay again, and converge to the right eigenvalue.
  std::vector<io::SolverCheckpoint> sunk;
  PowerOptions first = prescribed_options();
  first.max_iterations = 4;
  first.checkpoint_every = 4;
  first.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) { sunk.push_back(ck); };
  (void)power_iteration(op, start, first);
  ASSERT_EQ(sunk.size(), 1u);
  io::SolverCheckpoint bad = sunk.front();
  ASSERT_EQ(bad.schedule.phase, 0u) << "the decay estimate needs more products";
  bad.schedule.phase = 1;
  bad.schedule.position = 0;
  bad.schedule.upper = 1.5;
  bad.schedule.decay = 0.999;
  bad.schedule.best = std::numeric_limits<double>::infinity();
  bad.schedule.engaged_at = 4;

  const PowerResult r = resume_power_iteration(op, bad, prescribed_options());
  ASSERT_TRUE(r.converged);
  EXPECT_GE(r.shift_schedule.fallbacks, 1u);
  EXPECT_GT(r.shift_schedule.engaged_at, 4u) << "a fresh estimate re-engaged";
  EXPECT_LT(r.shift_schedule.upper, 1.0);
  EXPECT_NEAR(r.eigenvalue, 1.0, 1e-12);
}

TEST(ShiftSchedule, ACorruptScheduleStateIsRefused) {
  const PrescribedSpectrum op(6);
  io::SolverCheckpoint ck;
  ck.eigenvector = positive_start(64);
  ck.schedule.phase = 1;
  ck.schedule.upper = 0.5;
  ck.schedule.position = 8;  // one past the cycle
  EXPECT_THROW(resume_power_iteration(op, ck, prescribed_options()),
               precondition_error);
  ck.schedule.position = 0;
  ck.schedule.upper = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(resume_power_iteration(op, ck, prescribed_options()),
               precondition_error);

  // The distributed resume refuses it before any rank starts.
  const auto model = core::MutationModel::uniform(6, 0.01);
  const auto landscape = core::Landscape::single_peak(6, 2.0, 1.0);
  EXPECT_THROW(distributed::resume_distributed_power_iteration(model, landscape, 2, ck),
               precondition_error);
}

TEST(ShiftSchedule, MidCycleCheckpointsResumeBitForBit) {
  const PrescribedSpectrum op(10);
  const auto start = positive_start(1024);
  const Solve reference = run(op, start, prescribed_options());
  ASSERT_TRUE(reference.result.converged);
  ASSERT_GT(reference.result.shift_schedule.engaged_at, 0u);

  std::vector<io::SolverCheckpoint> sunk;
  PowerOptions writing = prescribed_options();
  writing.checkpoint_every = 3;
  writing.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) { sunk.push_back(ck); };
  (void)power_iteration(op, start, writing);

  unsigned mid_cycle = 0;
  for (const io::SolverCheckpoint& ck : sunk) {
    SCOPED_TRACE(::testing::Message() << "checkpoint " << ck.iteration);
    if (ck.schedule.phase == 1 && ck.schedule.position != 0) ++mid_cycle;
    const Solve resumed = resume(op, ck, prescribed_options());
    EXPECT_EQ(resumed.residuals, tail(reference.residuals, ck.iteration));
    expect_same_bits(resumed.result, reference.result);
    EXPECT_EQ(resumed.result.shift_schedule.engaged_at,
              reference.result.shift_schedule.engaged_at);
  }
  EXPECT_GE(mid_cycle, 8u) << "checkpoints every 3 products land mid-cycle";
}

TEST(ShiftSchedule, CancelFlushMidCycleResumesBitForBit) {
  const PrescribedSpectrum op(10);
  const auto start = positive_start(1024);
  const Solve reference = run(op, start, prescribed_options());
  ASSERT_TRUE(reference.result.converged);
  const unsigned engaged = reference.result.shift_schedule.engaged_at;
  ASSERT_GT(engaged, 0u);

  // Cancel a few products into the schedule's second cycle, once at each
  // of three consecutive cycle slots.
  for (unsigned stop_at = engaged + 11; stop_at < engaged + 14; ++stop_at) {
    SCOPED_TRACE(::testing::Message() << "cancelled at " << stop_at);
    ASSERT_LT(stop_at, reference.result.iterations);
    std::vector<io::SolverCheckpoint> sunk;
    unsigned last = 0;
    PowerOptions cancelled = prescribed_options();
    cancelled.checkpoint_every = 1000000;
    cancelled.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) {
      sunk.push_back(ck);
    };
    cancelled.on_residual = [&last](unsigned it, double) { last = it; };
    cancelled.should_stop = [&last, stop_at] { return last + 1 >= stop_at; };
    const PowerResult partial = power_iteration(op, start, cancelled);
    ASSERT_EQ(partial.failure, SolverFailure::cancelled);
    ASSERT_EQ(sunk.size(), 1u);
    ASSERT_EQ(sunk.front().iteration, stop_at - 1);
    EXPECT_EQ(sunk.front().schedule.phase, 1u);

    const Solve resumed = resume(op, sunk.front(), prescribed_options());
    EXPECT_EQ(resumed.residuals, tail(reference.residuals, stop_at - 1));
    expect_same_bits(resumed.result, reference.result);
  }
}

/// A uniform-model Fmmp solve that engages the schedule: the single-peak
/// landscape just below its error threshold at nu = 10.
struct ThresholdProblem {
  core::MutationModel model = core::MutationModel::uniform(10, 0.06);
  core::Landscape landscape = core::Landscape::single_peak(10, 2.0, 1.0);
  double shift = core::conservative_shift(model, landscape);
};

TEST(ShiftSchedule, DistributedRanksGiveTheSerialBits) {
  const ThresholdProblem problem;
  const core::FmmpOperator op(problem.model, problem.landscape);
  PowerOptions popts;
  popts.tolerance = 1e-12;
  popts.shift = problem.shift;
  const Solve serial = run(op, landscape_start(problem.landscape), popts);
  ASSERT_TRUE(serial.result.converged);
  ASSERT_GT(serial.result.shift_schedule.engaged_at, 0u);

  for (unsigned ranks : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "ranks " << ranks);
    Stream stream;
    distributed::DistributedPowerOptions dopts;
    dopts.tolerance = popts.tolerance;
    dopts.shift = problem.shift;
    dopts.on_residual = [&stream](unsigned it, double r) { stream.emplace_back(it, r); };
    const auto dist = distributed::distributed_power_iteration(
        problem.model, problem.landscape, ranks, dopts);
    ASSERT_TRUE(dist.converged);
    EXPECT_EQ(stream, serial.residuals);
    EXPECT_EQ(dist.eigenvalue, serial.result.eigenvalue);
    EXPECT_EQ(dist.iterations, serial.result.iterations);
    ASSERT_EQ(dist.eigenvector.size(), serial.result.eigenvector.size());
    for (std::size_t i = 0; i < dist.eigenvector.size(); ++i) {
      ASSERT_EQ(dist.eigenvector[i], serial.result.eigenvector[i]) << "entry " << i;
    }
    EXPECT_EQ(dist.shift_schedule.engaged_at, serial.result.shift_schedule.engaged_at);
    EXPECT_EQ(dist.shift_schedule.upper, serial.result.shift_schedule.upper);
  }
}

TEST(ShiftSchedule, EveryEngineGivesTheSerialBits) {
  const ThresholdProblem problem;
  const core::FmmpOperator op(problem.model, problem.landscape);
  const auto start = landscape_start(problem.landscape);
  PowerOptions popts;
  popts.tolerance = 1e-12;
  popts.shift = problem.shift;
  const Solve serial = run(op, start, popts);
  ASSERT_TRUE(serial.result.converged);
  ASSERT_GT(serial.result.shift_schedule.engaged_at, 0u);

  const auto pool = parallel::make_test_engine(parallel::TestEngine::pool3);
  for (const parallel::Engine* engine :
       {&parallel::serial_engine(), &parallel::parallel_engine(),
        static_cast<const parallel::Engine*>(pool.get()),
        &distributed::tree_engine()}) {
    SCOPED_TRACE(engine->name());
    PowerOptions options = popts;
    options.engine = engine;
    const Solve r = run(op, start, options);
    EXPECT_EQ(r.residuals, serial.residuals);
    expect_same_bits(r.result, serial.result);
  }
}

TEST(ShiftSchedule, ScheduledSolvesReturnNoNegativeConcentration) {
  // Once a Chebyshev root lies above one of W's diagonal entries, W - mu I
  // is no longer nonnegative and the last products leave entries of
  // rounding size below zero.  The orientation pass drops them: no entry
  // is negative, Gamma sums to 1 within 2^(nu - 53), the dropped mass stays
  // below the tolerance, and ranks still give the serial bits.  Both cases
  // had negative entries before the pass dropped them (130 and 1).
  struct Case {
    unsigned nu;
    double p;
    std::uint64_t seed;
  };
  for (const Case c : {Case{14, 0.005, 3}, Case{18, 0.01, 1}}) {
    SCOPED_TRACE(::testing::Message() << "nu " << c.nu << " p " << c.p);
    const auto model = core::MutationModel::uniform(c.nu, c.p);
    const auto landscape = core::Landscape::random(c.nu, 5.0, 1.0, c.seed);
    constexpr double kTolerance = 1e-10;
    SolveOptions options;
    options.tolerance = kTolerance;
    const QuasispeciesResult r = solve(model, landscape, options);
    ASSERT_TRUE(r.converged);
    ASSERT_GT(r.shift_schedule.engaged_at, 0u);
    EXPECT_GT(r.dropped_mass, 0.0);
    EXPECT_LE(r.dropped_mass, kTolerance);
    for (std::size_t i = 0; i < r.concentrations.size(); ++i) {
      ASSERT_GE(r.concentrations[i], 0.0) << "entry " << i;
    }
    // Normalised by the kept part's own sum: the concentrations sum to 1
    // within the rounding of a tree sum, not merely within the dropped mass.
    EXPECT_LE(std::abs(distributed::tree_sum(r.concentrations) - 1.0), 1e-14);
    double total = 0.0;
    for (double g : r.class_concentrations) total += g;
    EXPECT_LE(std::abs(total - 1.0), std::ldexp(1.0, static_cast<int>(c.nu) - 53));

    distributed::DistributedPowerOptions dopts;
    dopts.tolerance = kTolerance;
    dopts.shift = core::conservative_shift(model, landscape);
    const auto dist = distributed::distributed_power_iteration(model, landscape, 2, dopts);
    ASSERT_TRUE(dist.converged);
    EXPECT_EQ(dist.dropped_mass, r.dropped_mass);
    ASSERT_EQ(dist.eigenvector.size(), r.concentrations.size());
    for (std::size_t i = 0; i < dist.eigenvector.size(); ++i) {
      ASSERT_EQ(dist.eigenvector[i], r.concentrations[i]) << "entry " << i;
    }
  }
}

TEST(ShiftSchedule, AnUnconvergedSolveKeepsItsMinoritySignEntries) {
  // The orientation pass drops entries only from a converged vector, where
  // they are rounding-sized.  The same solve capped two products short of
  // convergence keeps every entry, negative ones included, is normalised
  // by its whole 1-norm and reports no dropped mass.
  const auto model = core::MutationModel::uniform(14, 0.005);
  const auto landscape = core::Landscape::random(14, 5.0, 1.0, 3);
  SolveOptions options;
  options.tolerance = 1e-10;
  options.recover = false;
  const QuasispeciesResult full = solve(model, landscape, options);
  ASSERT_TRUE(full.converged);
  options.max_iterations = full.iterations - 2;
  const QuasispeciesResult capped = solve(model, landscape, options);
  ASSERT_FALSE(capped.converged);
  ASSERT_GT(capped.shift_schedule.engaged_at, 0u);
  EXPECT_EQ(capped.dropped_mass, 0.0);
  std::size_t negative = 0;
  std::vector<double> magnitudes(capped.concentrations.size());
  for (std::size_t i = 0; i < capped.concentrations.size(); ++i) {
    if (capped.concentrations[i] < 0.0) ++negative;
    magnitudes[i] = std::abs(capped.concentrations[i]);
  }
  EXPECT_GT(negative, 0u);
  EXPECT_LE(std::abs(distributed::tree_sum(magnitudes) - 1.0), 1e-14);
}

TEST(ShiftSchedule, OnlyAShiftedEveryProductCheckEngagesIt) {
  // The schedule needs a positive shift and a check every product; the
  // unshifted and the cadence > 1 loops keep the fixed (or no) shift.
  const ThresholdProblem problem;
  const core::FmmpOperator op(problem.model, problem.landscape);
  const auto start = landscape_start(problem.landscape);
  PowerOptions popts;
  popts.tolerance = 1e-12;
  const PowerResult unshifted = power_iteration(op, start, popts);
  ASSERT_TRUE(unshifted.converged);
  EXPECT_EQ(unshifted.shift_schedule.engaged_at, 0u);

  popts.shift = problem.shift;
  popts.residual_check_every = 4;
  const PowerResult sparse = power_iteration(op, start, popts);
  ASSERT_TRUE(sparse.converged);
  EXPECT_EQ(sparse.shift_schedule.engaged_at, 0u);

  popts.residual_check_every = 1;
  const PowerResult scheduled = power_iteration(op, start, popts);
  ASSERT_TRUE(scheduled.converged);
  EXPECT_GT(scheduled.shift_schedule.engaged_at, 0u);
  EXPECT_LT(scheduled.iterations, unshifted.iterations);
  EXPECT_NEAR(scheduled.eigenvalue, unshifted.eigenvalue, 1e-12);
}

}  // namespace
}  // namespace qs::solvers
