// End-to-end integration tests: every solver path against every other on
// shared problems, mirroring the cross-checks behind the paper's claims.
#include <gtest/gtest.h>

#include <cmath>
#include "support/rng.hpp"

#include "analysis/error_classes.hpp"
#include "analysis/threshold.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "ode/integrators.hpp"
#include "ode/replicator.hpp"
#include "reference/explicit_q.hpp"
#include "reference/smvp.hpp"
#include "reference/xmvp.hpp"
#include "solvers/kronecker_solver.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "solvers/reduced_solver.hpp"

namespace qs {
namespace {

TEST(Integration, FiveIndependentSolversAgreeOnOneProblem) {
  // One random-landscape problem (nu = 8, p = 0.02), solved by:
  //  1. power iteration on Fmmp,
  //  2. power iteration on the dense Smvp,
  //  3. power iteration on Xmvp(nu),
  //  4. dense Jacobi on the symmetric formulation,
  //  5. long-time ODE integration.
  const unsigned nu = 8;
  const double p = 0.02;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 2024);
  const auto start = solvers::landscape_start(landscape);

  const core::FmmpOperator fmmp(model, landscape);
  const auto r1 = solvers::power_iteration(fmmp, start);
  ASSERT_TRUE(r1.converged);

  const core::SmvpOperator smvp(model, landscape);
  const auto r2 = solvers::power_iteration(smvp, start);
  ASSERT_TRUE(r2.converged);

  const core::XmvpOperator xmvp(model, landscape, nu);
  const auto r3 = solvers::power_iteration(xmvp, start);
  ASSERT_TRUE(r3.converged);

  const auto w_sym = core::build_w_dense(model, landscape,
                                         core::Formulation::symmetric);
  const auto dense = linalg::jacobi_eigen(w_sym);

  const ode::ReplicatorODE replicator(model, landscape);
  auto x_ode = replicator.master_start();
  ode::StationaryOptions ode_opts;
  ode_opts.derivative_tol = 1e-12;
  const auto r5 = ode::integrate_to_stationary(replicator, x_ode, ode_opts);
  ASSERT_TRUE(r5.converged);

  EXPECT_NEAR(r1.eigenvalue, dense.values[0], 1e-10);
  EXPECT_NEAR(r2.eigenvalue, dense.values[0], 1e-10);
  EXPECT_NEAR(r3.eigenvalue, dense.values[0], 1e-10);
  EXPECT_NEAR(r5.mean_fitness, dense.values[0], 1e-8);

  EXPECT_LT(linalg::max_abs_diff(r1.eigenvector, r2.eigenvector), 1e-11);
  EXPECT_LT(linalg::max_abs_diff(r1.eigenvector, r3.eigenvector), 1e-11);
  EXPECT_LT(linalg::max_abs_diff(r1.eigenvector, x_ode), 1e-8);
}

TEST(Integration, ErrorThresholdCurveMatchesPaperQualitatively) {
  // Figure 1 (left) behaviour at nu = 20, f0 = 2: ordered at p = 0.01
  // (master class dominates), uniform at p = 0.06 (beyond p_max ~ 0.035).
  const unsigned nu = 20;
  const auto ecl = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);

  const auto ordered = solvers::solve_reduced(0.01, ecl);
  // Master class holds a macroscopic share of the population although it is
  // 1 of 2^20 sequences.
  EXPECT_GT(ordered.class_concentrations[0], 0.1);

  const auto uniform = solvers::solve_reduced(0.06, ecl);
  EXPECT_LT(analysis::uniformity_distance(nu, uniform.class_concentrations), 1e-3);
}

TEST(Integration, MasterSequenceDominatesBelowThresholdPerSequence) {
  // Per-sequence view: below threshold the master sequence concentration
  // towers over any single mutant's.
  const unsigned nu = 12;
  const double p = 0.01;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto result = solvers::solve(model, landscape);
  ASSERT_TRUE(result.converged);
  const double master = result.concentrations[0];
  for (seq_t i = 1; i < result.concentrations.size(); ++i) {
    EXPECT_GT(master, result.concentrations[i]);
  }
  EXPECT_GT(master, 100.0 * result.concentrations[sequence_count(nu) - 1]);
}

TEST(Integration, KroneckerAndReducedPathsAgreeOnFlatCompatibleCase) {
  // A Kronecker landscape with identical flat factors is also an error-class
  // landscape; the two special-case solvers must agree with each other and
  // with the general path.
  const unsigned nu = 6;
  const double p = 0.05;
  const double c = 1.7;
  const auto model = core::MutationModel::uniform(nu, p);

  const core::KroneckerLandscape kron_landscape(
      std::vector<std::vector<double>>(3, std::vector<double>{c, c, c, c}));
  const auto kron = solvers::solve_kronecker(model, kron_landscape);

  // Flat landscape: dominant eigenvalue is c^? ... the full flat landscape
  // value is c^3 per sequence (product of three factors).
  const auto general = solvers::solve(model, kron_landscape.expand());
  ASSERT_TRUE(general.converged);
  EXPECT_NEAR(kron.eigenvalue(), general.eigenvalue, 1e-9 * general.eigenvalue);
  EXPECT_NEAR(general.eigenvalue, c * c * c, 1e-9);  // flat: lambda_0 = f
  EXPECT_LT(linalg::max_abs_diff(kron.expand(), general.concentrations), 1e-10);
}

TEST(Integration, GrayCodePermutationPreservesClassConcentrations) {
  // Footnote 2: reordering sequences (e.g. by Gray code) is a similarity
  // permutation; class concentrations relative to the permuted master are
  // unchanged. Verify by permuting the landscape and un-permuting the
  // solution.
  const unsigned nu = 8;
  const double p = 0.03;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 4096);

  const auto base = solvers::solve(model, landscape);
  ASSERT_TRUE(base.converged);

  // Permuted problem: f'_i = f_{gray(i)} does NOT commute with Q in general,
  // so instead permute by XOR with a fixed mask, which is an automorphism of
  // the hypercube (distance preserving): Q_{i^m, j^m} = Q_{i,j}.
  const seq_t mask = 0b10110101;
  std::vector<double> permuted_values(landscape.dimension());
  for (seq_t i = 0; i < landscape.dimension(); ++i) {
    permuted_values[i] = landscape.value(i ^ mask);
  }
  const auto permuted_landscape =
      core::Landscape::from_values(nu, std::move(permuted_values));
  const auto permuted = solvers::solve(model, permuted_landscape);
  ASSERT_TRUE(permuted.converged);

  EXPECT_NEAR(base.eigenvalue, permuted.eigenvalue, 1e-10);
  for (seq_t i = 0; i < landscape.dimension(); ++i) {
    EXPECT_NEAR(base.concentrations[i], permuted.concentrations[i ^ mask], 1e-10);
  }
}

TEST(Integration, GeneralizedMutationBeyondUniformRates) {
  // Section 2.2 end-to-end: an asymmetric per-site model solved through the
  // facade against the dense reference.
  const unsigned nu = 7;
  std::vector<transforms::Factor2> sites;
  Xoshiro256 rng(11);
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(
        transforms::Factor2::asymmetric(rng.uniform(0.005, 0.1), rng.uniform(0.005, 0.1)));
  }
  const auto model = core::MutationModel::per_site(sites);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 12);

  solvers::SolveOptions opts;  // Fmmp handles asymmetric models transparently
  const auto fast = solvers::solve(model, landscape, opts);
  ASSERT_TRUE(fast.converged);

  // The facade's iteration on Smvp: an asymmetric model runs unshifted.
  const core::SmvpOperator smvp(model, landscape);
  const auto dense = solvers::power_iteration(smvp, solvers::landscape_start(landscape));
  ASSERT_TRUE(dense.converged);

  EXPECT_NEAR(fast.eigenvalue, dense.eigenvalue, 1e-10);
  EXPECT_LT(linalg::max_abs_diff(fast.concentrations, dense.eigenvector), 1e-10);
}


TEST(Integration, SurvivalOfTheFlattest) {
  // Classic quasispecies prediction (only computable with a *general*
  // landscape solver): a lower fitness peak on a neutral plateau overtakes
  // a higher sharp peak once the error rate is large enough — selection
  // acts on the mutant cloud, not the single fittest sequence.
  const unsigned nu = 10;
  const seq_t sharp_master = 0;
  const seq_t flat_master = sequence_count(nu) - 1;
  std::vector<double> values(sequence_count(nu), 1.0);
  values[sharp_master] = 4.0;
  values[flat_master] = 3.0;
  for (unsigned b = 0; b < nu; ++b) values[flat_master ^ (seq_t{1} << b)] = 3.0;
  const auto landscape = core::Landscape::from_values(nu, std::move(values));

  auto region_mass = [&](std::span<const double> x, seq_t center) {
    double mass = 0.0;
    for (seq_t i = 0; i < x.size(); ++i) {
      if (hamming_distance(i, center) <= 2) mass += x[i];
    }
    return mass;
  };

  solvers::SolveOptions opts;
  opts.tolerance = 1e-10;
  const auto low_p =
      solvers::solve(core::MutationModel::uniform(nu, 0.005), landscape, opts);
  ASSERT_TRUE(low_p.converged);
  EXPECT_GT(region_mass(low_p.concentrations, sharp_master),
            10.0 * region_mass(low_p.concentrations, flat_master));

  const auto high_p =
      solvers::solve(core::MutationModel::uniform(nu, 0.12), landscape, opts);
  ASSERT_TRUE(high_p.converged);
  EXPECT_GT(region_mass(high_p.concentrations, flat_master),
            10.0 * region_mass(high_p.concentrations, sharp_master));
}

}  // namespace
}  // namespace qs
