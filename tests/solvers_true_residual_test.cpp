// Residuals recomputed outside the solvers.  Each eigenpair Arnoldi and
// block power return must meet its tolerance as ||W x - lambda x||_2 /
// ||lambda x||_2, computed here from one product of our own, not from the
// solver's estimate: a Ritz bound can read far below the true residual once
// the Krylov space is invariant.  Arnoldi must also *report* that true
// residual, to within a factor of 2.  (The power loop's residual is
// already the true one.)
//
// The problem is the hard case for both Krylov and block methods: nu = 12,
// single-peak, just below the error threshold, where lambda_0 and lambda_1
// nearly meet.  Arnoldi runs with a basis larger than the nu + 1 dimensions
// of the permutation-symmetric sector its peak-shaped start stays in, so
// its Krylov space becomes invariant inside the first cycle.  The reduced
// (nu + 1) x (nu + 1) solve gives lambda_0 exactly.  One more case leaves
// that problem: Arnoldi on a per-site asymmetric model, the row it alone
// wins in the eigensolver grid.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/site_process.hpp"
#include "solvers/arnoldi.hpp"
#include "solvers/block_power.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"

namespace qs::solvers {
namespace {

constexpr unsigned kNu = 12;
constexpr double kP = 0.06;
constexpr double kTolerance = 1e-10;

/// ||W x - lambda x||_2 / ||lambda x||_2 with one product of `op`.
double true_residual(const core::FmmpOperator& op, double lambda,
                     std::span<const double> x) {
  std::vector<double> wx(x.size());
  op.apply(x, wx);
  double r2 = 0.0, x2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = wx[i] - lambda * x[i];
    r2 += r * r;
    x2 += x[i] * x[i];
  }
  return std::sqrt(r2) / (std::abs(lambda) * std::sqrt(x2));
}

/// Arnoldi reports the true residual of its final vector: the one it
/// returns must be the recomputed one to within a factor of 2 (rounding of
/// two different summation orders), never a Ritz bound orders below it.
void expect_reported_residual(double reported, double recomputed) {
  EXPECT_LE(reported, 2.0 * recomputed);
  EXPECT_GE(reported, 0.5 * recomputed);
}

double reduced_lambda0() {
  return solve_reduced(kP, core::ErrorClassLandscape::single_peak(kNu, 2.0, 1.0))
      .eigenvalue;
}

TEST(TrueResidual, ArnoldiWithAnInvariantKrylovSpaceMeetsItsTolerance) {
  const auto model = core::MutationModel::uniform(kNu, kP);
  const auto landscape = core::Landscape::single_peak(kNu, 2.0, 1.0);
  ArnoldiOptions options;
  options.tolerance = kTolerance;
  options.basis_size = kNu + 4;
  const ArnoldiResult r = arnoldi_dominant_w(model, landscape, {}, options);
  ASSERT_TRUE(r.converged);

  // Arnoldi iterates in the right formulation: W = Q F on concentrations.
  const core::FmmpOperator w(model, landscape);
  const double recomputed = true_residual(w, r.eigenvalue, r.concentrations);
  EXPECT_LE(recomputed, kTolerance);
  expect_reported_residual(r.residual, recomputed);
  EXPECT_NEAR(r.eigenvalue, reduced_lambda0(), 1e-10);
}

// A tolerance below the rounding floor: the Ritz bound of the invariant
// Krylov space still reaches it, but the true residual cannot, so the
// solve must not claim convergence.  Converged always implies a reported
// (true) residual at or below the tolerance.
TEST(TrueResidual, ArnoldiBelowTheRoundingFloorDoesNotClaimConvergence) {
  const auto model = core::MutationModel::uniform(kNu, kP);
  const auto landscape = core::Landscape::single_peak(kNu, 2.0, 1.0);
  ArnoldiOptions options;
  options.tolerance = 1e-16;
  options.basis_size = kNu + 4;
  const ArnoldiResult r = arnoldi_dominant_w(model, landscape, {}, options);
  ASSERT_EQ(r.failure, SolverFailure::none);
  if (r.converged) {
    EXPECT_LE(r.residual, options.tolerance);
  }
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.residual, options.tolerance);

  const core::FmmpOperator w(model, landscape);
  expect_reported_residual(r.residual, true_residual(w, r.eigenvalue, r.concentrations));
}

// A basis smaller than the symmetric sector never becomes invariant, so
// Arnoldi restarts, and its Ritz residual is an honest estimate.
TEST(TrueResidual, RestartedArnoldiMeetsItsTolerance) {
  const auto model = core::MutationModel::uniform(kNu, kP);
  const auto landscape = core::Landscape::single_peak(kNu, 2.0, 1.0);
  ArnoldiOptions options;
  options.tolerance = kTolerance;
  options.basis_size = 6;
  const ArnoldiResult r = arnoldi_dominant_w(model, landscape, {}, options);
  ASSERT_TRUE(r.converged);
  EXPECT_GE(r.restarts, 1u);

  const core::FmmpOperator w(model, landscape);
  const double recomputed = true_residual(w, r.eigenvalue, r.concentrations);
  EXPECT_LE(recomputed, kTolerance);
  expect_reported_residual(r.residual, recomputed);
  EXPECT_NEAR(r.eigenvalue, reduced_lambda0(), 1e-10);
}

TEST(TrueResidual, BlockPowerPairsMeetTheirTolerance) {
  const auto model = core::MutationModel::uniform(kNu, kP);
  const auto landscape = core::Landscape::single_peak(kNu, 2.0, 1.0);
  BlockPowerOptions options;
  options.tolerance = kTolerance;
  options.k = 2;
  // Block power's tolerance is on the symmetric formulation W_S =
  // F^1/2 Q F^1/2, where its Ritz vectors live; check them there.
  const core::FmmpOperator w_s(model, landscape, core::Formulation::symmetric);
  const BlockPowerResult r = block_power_iteration(w_s, options);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.eigenvalues.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_LE(true_residual(w_s, r.eigenvalues[j], r.eigenvectors[j]), kTolerance)
        << "pair " << j;
  }
  EXPECT_NEAR(r.eigenvalues[0], reduced_lambda0(), 1e-10);
}

// The per-site asymmetric model has no symmetric formulation and no
// reduced solve: Arnoldi is checked against its own recomputed residual and
// against the power iteration's eigenvalue.
TEST(TrueResidual, ArnoldiOnAnAsymmetricModelMeetsItsTolerance) {
  std::vector<transforms::Factor2> sites;
  for (unsigned k = 0; k < kNu; ++k) {
    sites.push_back(core::asymmetric_site(0.01 + 0.002 * k, 0.03 - 0.001 * k));
  }
  const auto model = core::MutationModel::per_site(std::move(sites));
  const auto landscape = core::Landscape::random(kNu, 5.0, 1.0, 3);
  ArnoldiOptions options;
  options.tolerance = kTolerance;
  const ArnoldiResult r = arnoldi_dominant_w(model, landscape, {}, options);
  ASSERT_TRUE(r.converged);

  const core::FmmpOperator w(model, landscape);
  const double recomputed = true_residual(w, r.eigenvalue, r.concentrations);
  EXPECT_LE(recomputed, kTolerance);
  expect_reported_residual(r.residual, recomputed);
  PowerOptions power;
  power.tolerance = kTolerance;
  const PowerResult pi = power_iteration(w, landscape_start(landscape), power);
  ASSERT_TRUE(pi.converged);
  EXPECT_NEAR(r.eigenvalue, pi.eigenvalue, 1e-9 * pi.eigenvalue);
}

}  // namespace
}  // namespace qs::solvers
