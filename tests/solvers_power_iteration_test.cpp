// Unit tests for the operator-based power iteration (Section 3).
#include "solvers/power_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "distributed/reduction.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/engine.hpp"
#include "reference/explicit_q.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

TEST(PowerIteration, FlatLandscapeGivesUniformEigenvector) {
  // All sequences equally fit: W = c Q is bistochastic scaled and the
  // dominant eigenvector is uniform (Section 1.1).
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.05);
  const auto landscape = core::Landscape::flat(nu, 3.0);
  const core::FmmpOperator op(model, landscape);
  const auto r = power_iteration(op);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 3.0, 1e-10);  // lambda_0 = c (Q's lambda_0 = 1)
  const double expected = 1.0 / 256.0;
  for (double x : r.eigenvector) EXPECT_NEAR(x, expected, 1e-12);
}

TEST(PowerIteration, MatchesDenseEigenSolverOnRandomLandscape) {
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 5);

  // Reference: full dense symmetric eigendecomposition.
  const auto w_sym = core::build_w_dense(model, landscape,
                                         core::Formulation::symmetric);
  const auto dense = linalg::jacobi_eigen(w_sym);

  const core::FmmpOperator op(model, landscape, core::Formulation::right);
  const auto r = power_iteration(op, landscape_start(landscape));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, dense.values[0], 1e-10);

  // The dense symmetric eigenvector converts to concentrations via
  // x_R = F^{-1/2} x_S.
  std::vector<double> x_ref(w_sym.rows());
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    x_ref[i] = dense.vectors(i, 0) / std::sqrt(landscape.value(i));
  }
  double s = 0.0;
  for (double v : x_ref) s += v;
  if (s < 0.0) linalg::scale(x_ref, -1.0);
  linalg::normalize1(x_ref);
  EXPECT_LT(linalg::max_abs_diff(r.eigenvector, x_ref), 1e-9);
}

TEST(PowerIteration, EigenvectorIsNonnegative) {
  // Perron-Frobenius: concentrations must be nonnegative.
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 6);
  const core::FmmpOperator op(model, landscape);
  const auto r = power_iteration(op, landscape_start(landscape));
  ASSERT_TRUE(r.converged);
  for (double x : r.eigenvector) EXPECT_GE(x, 0.0);
  EXPECT_NEAR(linalg::norm1(r.eigenvector), 1.0, 1e-13);
}

TEST(PowerIteration, ShiftReducesIterationCount) {
  // The paper reports about ten percent fewer iterations with
  // mu = (1-2p)^nu f_min on random landscapes.
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 77);
  const core::FmmpOperator op(model, landscape);
  const auto start = landscape_start(landscape);

  PowerOptions plain;
  plain.tolerance = 1e-13;
  const auto unshifted = power_iteration(op, start, plain);

  PowerOptions shifted = plain;
  shifted.shift = core::conservative_shift(model, landscape);
  const auto with_shift = power_iteration(op, start, shifted);

  ASSERT_TRUE(unshifted.converged);
  ASSERT_TRUE(with_shift.converged);
  EXPECT_LT(with_shift.iterations, unshifted.iterations);
  EXPECT_NEAR(with_shift.eigenvalue, unshifted.eigenvalue, 1e-10);
  EXPECT_LT(linalg::max_abs_diff(with_shift.eigenvector, unshifted.eigenvector),
            1e-9);
}

TEST(PowerIteration, ResidualCheckCadenceDoesNotChangeResult) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 13);
  const core::FmmpOperator op(model, landscape);
  const auto start = landscape_start(landscape);

  PowerOptions every;
  every.tolerance = 1e-12;
  PowerOptions sparse = every;
  sparse.residual_check_every = 8;
  const auto a = power_iteration(op, start, every);
  const auto b = power_iteration(op, start, sparse);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.eigenvalue, b.eigenvalue, 1e-11);
  // The sparse check can only overshoot to the next multiple of 8.
  EXPECT_GE(b.iterations, a.iterations);
  EXPECT_LE(b.iterations, a.iterations + 8);
}

TEST(PowerIteration, ReportsNonConvergenceHonestly) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 14);
  const core::FmmpOperator op(model, landscape);
  PowerOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 1e-15;
  const auto r = power_iteration(op, landscape_start(landscape), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_GT(r.residual, 1e-15);
}

/// A dense positive matrix of any order: the power loop's one-block path
/// (a length that is not a power of two cannot be split into subtrees).
class DenseOperator final : public core::LinearOperator {
 public:
  explicit DenseOperator(std::size_t n) : n_(n), a_(n * n) {
    Xoshiro256 rng(19);
    for (double& v : a_) v = rng.uniform(0.1, 1.0);
  }
  seq_t dimension() const override { return static_cast<seq_t>(n_); }
  std::string_view name() const override { return "dense"; }
  void apply(std::span<const double> x, std::span<double> y) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n_; ++j) acc += a_[i * n_ + j] * x[j];
      y[i] = acc;
    }
  }

 private:
  std::size_t n_;
  std::vector<double> a_;
};

struct Trajectory {
  PowerResult result;
  std::vector<std::pair<unsigned, double>> residuals;
};

Trajectory run_with_engine(const core::LinearOperator& op,
                           const std::vector<double>& start, double shift,
                           const parallel::Engine* engine) {
  Trajectory t;
  PowerOptions opts;
  opts.shift = shift;
  opts.engine = engine;
  opts.on_residual = [&t](unsigned it, double r) { t.residuals.emplace_back(it, r); };
  t.result = power_iteration(op, start, opts);
  return t;
}

void expect_same_bits(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.result.eigenvalue, b.result.eigenvalue);
  EXPECT_EQ(a.result.iterations, b.result.iterations);
  EXPECT_EQ(a.residuals, b.residuals);
  ASSERT_EQ(a.result.eigenvector.size(), b.result.eigenvector.size());
  for (std::size_t i = 0; i < a.result.eigenvector.size(); ++i) {
    ASSERT_EQ(a.result.eigenvector[i], b.result.eigenvector[i]) << "entry " << i;
  }
}

TEST(PowerIteration, EngineReductionsMatchSerial) {
  // An engine only fans the loop's passes out over aligned blocks; the sums
  // keep the one tree order, so every backend reproduces the engine-less
  // solve bit for bit: eigenvalue, iteration count, residual stream and
  // eigenvector.
  const auto pool = parallel::make_test_engine(parallel::TestEngine::pool3);
  const std::vector<const parallel::Engine*> engines = {
      &parallel::serial_engine(), &parallel::parallel_engine(), pool.get(),
      &distributed::tree_engine()};
  for (unsigned nu : {9u, 12u, 16u}) {
    const auto model = core::MutationModel::uniform(nu, 0.03);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 15);
    const core::FmmpOperator op(model, landscape);
    const auto start = landscape_start(landscape);
    const double shift = core::conservative_shift(model, landscape);
    const Trajectory serial = run_with_engine(op, start, shift, nullptr);
    ASSERT_TRUE(serial.result.converged) << "nu=" << nu;
    for (const parallel::Engine* engine : engines) {
      SCOPED_TRACE(::testing::Message() << "nu=" << nu << " engine=" << engine->name());
      expect_same_bits(run_with_engine(op, start, shift, engine), serial);
    }
  }
  const DenseOperator dense(300);
  const Trajectory serial = run_with_engine(dense, {}, 0.0, nullptr);
  ASSERT_TRUE(serial.result.converged);
  for (const parallel::Engine* engine : engines) {
    SCOPED_TRACE(::testing::Message() << "dense engine=" << engine->name());
    expect_same_bits(run_with_engine(dense, {}, 0.0, engine), serial);
  }
}

TEST(PowerIteration, LandscapeStartIsNormalisedCopyOfF) {
  const auto landscape = core::Landscape::random(6, 5.0, 1.0, 16);
  const auto s = landscape_start(landscape);
  EXPECT_NEAR(linalg::norm1(std::span<const double>(s)), 1.0, 1e-14);
  // Proportional to the landscape values.
  const double ratio = s[3] / landscape.value(3);
  for (seq_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(s[i], ratio * landscape.value(i), 1e-14);
  }
}

TEST(PowerIteration, RejectsBadArguments) {
  const auto model = core::MutationModel::uniform(4, 0.1);
  const auto landscape = core::Landscape::flat(4, 1.0);
  const core::FmmpOperator op(model, landscape);
  std::vector<double> wrong(8, 1.0);
  EXPECT_THROW(power_iteration(op, wrong), precondition_error);
  PowerOptions opts;
  opts.residual_check_every = 0;
  EXPECT_THROW(power_iteration(op, {}, opts), precondition_error);
}

}  // namespace
}  // namespace qs::solvers
