// Unit tests for the shift-and-invert oracles on W = Q F.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/engine.hpp"
#include "reference/explicit_q.hpp"
#include "reference/shift_invert.hpp"
#include "solvers/block_power.hpp"
#include "solvers/power_iteration.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

struct Problem {
  core::MutationModel model;
  core::Landscape landscape;
};

Problem make_problem(unsigned nu, double p, std::uint64_t seed) {
  return {core::MutationModel::uniform(nu, p),
          core::Landscape::random(nu, 5.0, 1.0, seed)};
}

TEST(SolveShiftedW, MatchesDenseSolve) {
  const auto [model, landscape] = make_problem(7, 0.03, 1);
  const double mu = 0.7;  // inside the spectrum -> MINRES path
  const std::size_t n = 128;

  std::vector<double> b(n), x(n, 0.0);
  Xoshiro256 rng(2);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  const auto r = solve_shifted_symmetric_w(model, landscape, mu, b, x, {1e-12, 5000});
  ASSERT_TRUE(r.converged);

  // Dense check: (W_S - mu I) x == b.
  auto w = core::build_w_dense(model, landscape, core::Formulation::symmetric);
  std::vector<double> check(n);
  w.multiply(x, check);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(check[i] - mu * x[i], b[i], 1e-8);
  }
}

TEST(SolveShiftedW, CgPathWithQPreconditioner) {
  const auto [model, landscape] = make_problem(8, 0.02, 3);
  const double mu = 0.0;  // W_S positive definite -> CG path
  const std::size_t n = 256;
  std::vector<double> b(n), x_pre(n, 0.0), x_plain(n, 0.0);
  Xoshiro256 rng(4);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  const auto with_pre = solve_shifted_symmetric_w(model, landscape, mu, b, x_pre,
                                                  {1e-12, 5000}, true);
  const auto without = solve_shifted_symmetric_w(model, landscape, mu, b, x_plain,
                                                 {1e-12, 5000}, false);
  ASSERT_TRUE(with_pre.converged);
  ASSERT_TRUE(without.converged);
  EXPECT_LT(linalg::max_abs_diff(x_pre, x_plain), 1e-7);
  // The exact mutation-part preconditioner must help (and never hurt).
  EXPECT_LE(with_pre.iterations, without.iterations);
}

TEST(InverseIterationW, FindsDominantPairWithShiftAboveSpectrum) {
  const auto [model, landscape] = make_problem(8, 0.02, 5);
  // lambda_0 <= f_max; shifting just above it targets the dominant pair.
  const double mu = landscape.max_fitness() * 1.0001;
  const auto r = inverse_iteration_w(model, landscape, mu);
  ASSERT_TRUE(r.converged);

  const core::FmmpOperator op(model, landscape);
  const auto reference = power_iteration(op, landscape_start(landscape));
  ASSERT_TRUE(reference.converged);
  EXPECT_NEAR(r.eigenvalue, reference.eigenvalue, 1e-9);
  EXPECT_LT(linalg::max_abs_diff(r.concentrations, reference.eigenvector), 1e-8);
  // Shift-invert converges in far fewer outer steps than the power method
  // takes iterations.
  EXPECT_LT(r.outer_iterations, 40u);
}

TEST(RayleighQuotientIterationW, CubicallyFastFromLandscapeStart) {
  const auto [model, landscape] = make_problem(9, 0.01, 7);
  const auto r = rayleigh_quotient_iteration_w(model, landscape);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.outer_iterations, 8u);

  const core::FmmpOperator op(model, landscape);
  const auto reference = power_iteration(op, landscape_start(landscape));
  EXPECT_NEAR(r.eigenvalue, reference.eigenvalue, 1e-9);
  EXPECT_LT(linalg::max_abs_diff(r.concentrations, reference.eigenvector), 1e-8);
}

// Every inner solve of a run shares one set of Krylov work vectors, the
// caller's when given: a dirty caller buffer gives the bits of the
// oracle's own, and the MINRES steps ran in it.
TEST(RayleighQuotientIterationW, InnerSolvesShareTheCallersKrylovBuffer) {
  const auto [model, landscape] = make_problem(9, 0.01, 7);
  const auto own = rayleigh_quotient_iteration_w(model, landscape);
  ASSERT_TRUE(own.converged);

  std::vector<double> work(3, std::nan(""));
  ShiftInvertOptions options;
  options.inner.work = &work;
  const auto shared = rayleigh_quotient_iteration_w(model, landscape, {}, options);
  EXPECT_EQ(shared.eigenvalue, own.eigenvalue);
  EXPECT_EQ(shared.concentrations, own.concentrations);
  EXPECT_EQ(shared.inner_iterations_total, own.inner_iterations_total);
  EXPECT_EQ(work.size(), 7 * model.dimension());
}

TEST(RayleighQuotientIterationW, ParallelEnginesGiveTheSerialBits) {
  // The eigen-residual sums are tree-ordered on fixed row blocks, so a
  // parallel engine reproduces the serial iteration bit for bit: shifts,
  // inner solves, residuals and the eigenvector.  nu = 14 is long enough
  // to fan the sums out over four lanes.
  for (unsigned nu : {10u, 11u, 12u, 14u}) {
    const auto [model, landscape] = make_problem(nu, 0.01, 50 + nu);
    ShiftInvertOptions serial_opts;
    const auto serial = rayleigh_quotient_iteration_w(model, landscape, {}, serial_opts);
    ASSERT_TRUE(serial.converged) << "nu=" << nu;
    for (parallel::TestEngine kind :
         {parallel::TestEngine::pool3, parallel::TestEngine::pool}) {
      const auto engine = parallel::make_test_engine(kind);
      SCOPED_TRACE(::testing::Message() << "nu=" << nu << " engine=" << engine->name());
      ShiftInvertOptions opts;
      opts.engine = engine.get();
      const auto r = rayleigh_quotient_iteration_w(model, landscape, {}, opts);
      EXPECT_EQ(r.outer_iterations, serial.outer_iterations);
      EXPECT_EQ(r.inner_iterations_total, serial.inner_iterations_total);
      EXPECT_EQ(r.eigenvalue, serial.eigenvalue);
      EXPECT_EQ(r.residual, serial.residual);
      EXPECT_EQ(r.concentrations, serial.concentrations);
    }
  }
}

// What the oracle's header warns of: near the error threshold the twenty
// warm-up products leave the Rayleigh quotient nearer lambda_1 than
// lambda_0, and RQI converges, with a tight residual, to the wrong pair.
// At nu = 12, single-peak (2 / 1), that happens for p in about
// [0.0525, 0.0575]; p = 0.055 sits in the middle.
TEST(RayleighQuotientIterationW, NearTheThresholdConvergesToTheSubdominantPair) {
  const unsigned nu = 12;
  const double p = 0.055;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  ShiftInvertOptions options;
  options.tolerance = 1e-10;
  const auto r = rayleigh_quotient_iteration_w(model, landscape, {}, options);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.residual, 1e-10);

  BlockPowerOptions block;
  block.tolerance = 1e-10;
  block.k = 2;
  const auto top = top_k_spectrum(model, landscape, block);
  ASSERT_TRUE(top.converged);
  ASSERT_EQ(top.eigenvalues.size(), 2u);
  EXPECT_GT(top.eigenvalues[0] - top.eigenvalues[1], 0.05);
  EXPECT_NEAR(r.eigenvalue, top.eigenvalues[1], 1e-9);
}

TEST(SmallestEigenpairW, ValidatesPaperLowerBound) {
  // Section 3: lambda_min >= (1-2p)^nu f_min. Compute lambda_min exactly
  // and compare with both the bound and the dense spectrum.
  const auto [model, landscape] = make_problem(6, 0.05, 9);
  const auto r = smallest_eigenpair_w(model, landscape);
  ASSERT_TRUE(r.converged);

  const auto w = core::build_w_dense(model, landscape, core::Formulation::symmetric);
  const auto dense = linalg::jacobi_eigen(w);
  EXPECT_NEAR(r.eigenvalue, dense.values.back(), 1e-9);
  EXPECT_GE(r.eigenvalue, core::conservative_shift(model, landscape) - 1e-12);
}

TEST(ShiftInvertW, RejectsUnsupportedModels) {
  const auto asym = core::MutationModel::per_site(
      {transforms::Factor2::asymmetric(0.3, 0.1),
       transforms::Factor2::asymmetric(0.1, 0.1)});
  const auto landscape = core::Landscape::flat(2, 1.0);
  EXPECT_THROW(inverse_iteration_w(asym, landscape, 1.0), precondition_error);
}

}  // namespace
}  // namespace qs::solvers
