// Pass 1 of a residual check inside the check product (CheckPath::fused)
// against the standalone pass (CheckPath::passes), bit for bit.
//
// A lone one-column power loop over a banded Fmmp hands pass 1 to the
// product: the last band sums every chunk of y it finishes, and the chunk
// sums, complete subtrees of the one summation tree, combine into the
// standalone pass's bits.  The standalone side runs the same planned
// operator behind a decorator that forwards only apply, as every decorated
// operator does.  Every observable of the two solves must agree exactly:
// the residual stream, eigenvalue, iterations, eigenvector, dropped mass,
// shift schedule and checkpoints — at nu = 10, 14 and 18, shifted and
// unshifted, on the serial engine and the three-lane pool, and on every
// exit: the iteration cap, convergence at the first check, should_stop, a
// non-finite residual, and a checkpoint/resume round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

/// Forwards apply and nothing else: the wrapped operator loses apply_step,
/// so a solve through it runs the standalone pass 1.
class ApplyOnly final : public core::LinearOperator {
 public:
  explicit ApplyOnly(const core::LinearOperator& inner) : inner_(inner) {}
  seq_t dimension() const override { return inner_.dimension(); }
  std::string_view name() const override { return "ApplyOnly"; }
  void apply(std::span<const double> x, std::span<double> y) const override {
    inner_.apply(x, y);
  }
  std::optional<core::FitnessRange> fitness_range() const override {
    return inner_.fitness_range();
  }

 private:
  const core::LinearOperator& inner_;
};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

/// One solve's observables: the result, the residual stream and every
/// checkpoint it wrote.
struct Solve {
  PowerResult result;
  std::vector<std::pair<unsigned, std::uint64_t>> residuals;
  std::vector<io::SolverCheckpoint> checkpoints;
};

Solve run(const core::LinearOperator& op, std::span<const double> start,
          PowerOptions options, const io::SolverCheckpoint* resume = nullptr) {
  Solve s;
  options.on_residual = [&s](unsigned it, double r) { s.residuals.emplace_back(it, bits(r)); };
  if (options.checkpoint_every > 0) {
    options.checkpoint_sink = [&s](const io::SolverCheckpoint& ck) {
      s.checkpoints.push_back(ck);
    };
  }
  s.result = resume != nullptr ? resume_power_iteration(op, *resume, options)
                               : power_iteration(op, start, options);
  return s;
}

void expect_same_checkpoint(const io::SolverCheckpoint& a, const io::SolverCheckpoint& b) {
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(bits(a.eigenvalue), bits(b.eigenvalue));
  EXPECT_EQ(bits(a.residual), bits(b.residual));
  EXPECT_EQ(bits(a.eigenvector), bits(b.eigenvector));
  EXPECT_EQ(a.schedule.phase, b.schedule.phase);
  EXPECT_EQ(a.schedule.position, b.schedule.position);
  EXPECT_EQ(bits(a.schedule.upper), bits(b.schedule.upper));
}

/// Every observable of the two solves, bit for bit, and each took its path.
void expect_same_bits(const Solve& fused, const Solve& passes) {
  EXPECT_EQ(fused.result.check_path, CheckPath::fused);
  EXPECT_EQ(passes.result.check_path, CheckPath::passes);
  EXPECT_EQ(fused.residuals, passes.residuals);
  const PowerResult& a = fused.result;
  const PowerResult& b = passes.result;
  EXPECT_EQ(bits(a.eigenvalue), bits(b.eigenvalue));
  EXPECT_EQ(bits(a.residual), bits(b.residual));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(bits(a.eigenvector), bits(b.eigenvector));
  EXPECT_EQ(bits(a.column_eigenvalues), bits(b.column_eigenvalues));
  EXPECT_EQ(bits(a.column_residuals), bits(b.column_residuals));
  EXPECT_EQ(bits(a.dropped_mass), bits(b.dropped_mass));
  EXPECT_EQ(a.shift_schedule.engaged_at, b.shift_schedule.engaged_at);
  EXPECT_EQ(bits(a.shift_schedule.decay), bits(b.shift_schedule.decay));
  EXPECT_EQ(bits(a.shift_schedule.upper), bits(b.shift_schedule.upper));
  EXPECT_EQ(a.shift_schedule.fallbacks, b.shift_schedule.fallbacks);
  ASSERT_EQ(fused.checkpoints.size(), passes.checkpoints.size());
  for (std::size_t i = 0; i < fused.checkpoints.size(); ++i) {
    expect_same_checkpoint(fused.checkpoints[i], passes.checkpoints[i]);
  }
}

/// A planned operator on `engine` and the options a facade solve gives it.
struct Problem {
  core::MutationModel model;
  core::Landscape landscape;
  std::unique_ptr<core::PlannedOperator> op;
  PowerOptions options;

  Problem(core::MutationModel m, core::Landscape l, const parallel::Engine& engine,
          bool shifted)
      : model(std::move(m)), landscape(std::move(l)) {
    core::PlannedOperatorConfig config;
    config.engine = &engine;
    op = std::make_unique<core::PlannedOperator>(model, landscape, config);
    options.engine = &engine;
    options.workspace = &op->workspace();
    options.tolerance = 1e-12;
    if (shifted) options.shift = core::conservative_shift(model, landscape);
  }

  /// The fused solve and the standalone one from the landscape start.
  std::pair<Solve, Solve> both(const PowerOptions& o) const {
    const std::vector<double> start = landscape_start(landscape);
    const ApplyOnly apply_only(*op);
    return {run(*op, start, o), run(apply_only, start, o)};
  }
};

class FusedCheck : public ::testing::TestWithParam<parallel::TestEngine> {
 protected:
  std::unique_ptr<parallel::Engine> engine_ = parallel::make_test_engine(GetParam());
};

TEST_P(FusedCheck, ConvergedSolvesAgreeBitForBit) {
  for (const unsigned nu : {10u, 14u, 18u}) {
    for (const bool shifted : {true, false}) {
      SCOPED_TRACE(testing::Message() << "nu " << nu << (shifted ? " shifted" : " unshifted"));
      const Problem p(core::MutationModel::uniform(nu, 0.01),
                      core::Landscape::random(nu, 5.0, 1.0, 7 + nu), *engine_, shifted);
      const auto [fused, passes] = p.both(p.options);
      ASSERT_TRUE(fused.result.converged);
      expect_same_bits(fused, passes);
    }
  }
}

TEST_P(FusedCheck, ScheduledShiftAgreesBitForBit) {
  // Just below the single-peak error threshold the Chebyshev schedule
  // engages, so pass 1 takes a different shift every product.
  const Problem p(core::MutationModel::uniform(12, 0.05),
                  core::Landscape::single_peak(12, 2.0, 1.0), *engine_, true);
  const auto [fused, passes] = p.both(p.options);
  ASSERT_TRUE(fused.result.converged);
  ASSERT_GT(fused.result.shift_schedule.engaged_at, 0u);
  expect_same_bits(fused, passes);
}

TEST_P(FusedCheck, IterationCapAgreesBitForBit) {
  const Problem p(core::MutationModel::uniform(14, 0.01),
                  core::Landscape::random(14, 5.0, 1.0, 3), *engine_, true);
  PowerOptions o = p.options;
  o.tolerance = 0.0;
  o.stall_window = 0;
  o.max_iterations = 7;
  const auto [fused, passes] = p.both(o);
  EXPECT_EQ(fused.result.iterations, 7u);
  EXPECT_FALSE(fused.result.converged);
  expect_same_bits(fused, passes);
}

TEST_P(FusedCheck, ConvergenceAtTheFirstCheckAgreesBitForBit) {
  // A flat landscape's start is already the eigenvector (uniform).
  const Problem p(core::MutationModel::uniform(14, 0.01), core::Landscape::flat(14, 1.5),
                  *engine_, true);
  const auto [fused, passes] = p.both(p.options);
  EXPECT_TRUE(fused.result.converged);
  EXPECT_EQ(fused.result.iterations, 1u);
  expect_same_bits(fused, passes);
}

TEST_P(FusedCheck, ShouldStopAgreesBitForBit) {
  // Cancelled at the fifth check, with the cancel flush of the iterate the
  // check kept.
  const Problem p(core::MutationModel::uniform(14, 0.01),
                  core::Landscape::random(14, 5.0, 1.0, 5), *engine_, true);
  PowerOptions o = p.options;
  o.tolerance = 0.0;
  o.stall_window = 0;
  o.checkpoint_every = 1000000;
  const auto with_stop = [&o] {
    PowerOptions c = o;
    auto polls = std::make_shared<unsigned>(0);
    c.should_stop = [polls] { return ++*polls >= 5; };
    return c;
  };
  const std::vector<double> start = landscape_start(p.landscape);
  const ApplyOnly apply_only(*p.op);
  const Solve fused = run(*p.op, start, with_stop());
  const Solve passes = run(apply_only, start, with_stop());
  EXPECT_EQ(fused.result.failure, SolverFailure::cancelled);
  ASSERT_EQ(fused.checkpoints.size(), 1u);
  expect_same_bits(fused, passes);
}

TEST_P(FusedCheck, NonFiniteResidualAgreesBitForBit) {
  // Fitness near 1e200: the Rayleigh quotient stays finite, but the
  // squared residual of pass 2 overflows, and the guard stops both solves
  // at the first check.
  const unsigned nu = 14;
  const core::Landscape base = core::Landscape::random(nu, 5.0, 1.0, 9);
  std::vector<double> huge(base.values().begin(), base.values().end());
  for (double& v : huge) v *= 1e200;
  const Problem p(core::MutationModel::uniform(nu, 0.01),
                  core::Landscape::from_values(nu, std::move(huge)), *engine_, true);
  const auto [fused, passes] = p.both(p.options);
  EXPECT_EQ(fused.result.failure, SolverFailure::non_finite);
  expect_same_bits(fused, passes);
}

TEST_P(FusedCheck, CheckpointResumeRoundTripAgreesBitForBit) {
  const Problem p(core::MutationModel::uniform(14, 0.01),
                  core::Landscape::random(14, 5.0, 1.0, 11), *engine_, true);
  PowerOptions o = p.options;
  o.checkpoint_every = 4;
  const auto [fused, passes] = p.both(o);
  ASSERT_TRUE(fused.result.converged);
  ASSERT_GE(fused.checkpoints.size(), 2u);
  expect_same_bits(fused, passes);

  // Either path resumes either path's checkpoint to the uninterrupted bits.
  const io::SolverCheckpoint& mid = fused.checkpoints[1];
  const ApplyOnly apply_only(*p.op);
  const Solve resumed_fused = run(*p.op, {}, o, &mid);
  const Solve resumed_passes = run(apply_only, {}, o, &mid);
  expect_same_bits(resumed_fused, resumed_passes);
  EXPECT_EQ(bits(resumed_fused.result.eigenvector), bits(fused.result.eigenvector));
  EXPECT_EQ(resumed_fused.result.iterations, fused.result.iterations);
}

INSTANTIATE_TEST_SUITE_P(Engines, FusedCheck,
                         ::testing::Values(parallel::TestEngine::serial,
                                           parallel::TestEngine::pool3),
                         [](const auto& info) { return parallel::test_engine_name(info.param); });

TEST(FusedCheck, TheFacadeTakesTheFusedPathAndDecoratorsThePasses) {
  const auto model = core::MutationModel::uniform(12, 0.01);
  const auto landscape = core::Landscape::random(12, 5.0, 1.0, 13);
  SolveOptions options;
  const QuasispeciesResult fused = solve(model, landscape, options);
  options.wrap_operator = [](std::unique_ptr<core::LinearOperator> inner) {
    struct Owning final : core::LinearOperator {
      explicit Owning(std::unique_ptr<core::LinearOperator> op) : op_(std::move(op)) {}
      seq_t dimension() const override { return op_->dimension(); }
      std::string_view name() const override { return op_->name(); }
      void apply(std::span<const double> x, std::span<double> y) const override {
        op_->apply(x, y);
      }
      std::unique_ptr<core::LinearOperator> op_;
    };
    return std::unique_ptr<core::LinearOperator>(new Owning(std::move(inner)));
  };
  const QuasispeciesResult passes = solve(model, landscape, options);
  EXPECT_EQ(fused.check_path, CheckPath::fused);
  EXPECT_EQ(passes.check_path, CheckPath::passes);
  EXPECT_EQ(bits(fused.eigenvalue), bits(passes.eigenvalue));
  EXPECT_EQ(fused.iterations, passes.iterations);
  EXPECT_EQ(bits(fused.concentrations), bits(passes.concentrations));
}

}  // namespace
}  // namespace qs::solvers
