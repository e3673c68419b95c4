// Golden-trajectory tests for the default solve.
//
// A bare solve(model, landscape) runs the facade's planned operator: band
// spans, the banded kernel, and the single-vector SIMD microkernels on the
// serial engine.  That kernel is BIT-IDENTICAL to the paper's Fmmp run
// through its reference Algorithm 1, so these tests pin it at the strongest
// possible level: the complete residual stream, the eigenvalue, and the
// concentration vector of a default facade solve must equal a power
// iteration on ReferenceFmmp (scale + Algorithm 1 + scale, no shared code
// with the banded kernel) EXACTLY (ASSERT_EQ on doubles), shift handling
// included.
#include <vector>

#include <gtest/gtest.h>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/spectral.hpp"
#include "reference/fmmp.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/rng.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::solvers {
namespace {

struct Trajectory {
  std::vector<unsigned> iterations;
  std::vector<double> residuals;
};

/// The reference behaviour: ReferenceFmmp (the paper's Algorithm 1, no
/// engine, no banding) driven by the same power iteration the facade uses,
/// with the same start vector and the same conservative shift rule.
Trajectory classic_reference(const core::MutationModel& model,
                             const core::Landscape& landscape,
                             PowerResult& out) {
  const reference::ReferenceFmmp classic(model, landscape);
  Trajectory t;
  PowerOptions popts;
  popts.on_residual = [&t](unsigned it, double res) {
    t.iterations.push_back(it);
    t.residuals.push_back(res);
  };
  if (model.symmetric() && model.kind() != core::MutationKind::grouped) {
    popts.shift = core::conservative_shift(model, landscape);
  }
  out = power_iteration(classic, landscape_start(landscape), popts);
  return t;
}

void expect_same_trajectory(const Trajectory& expected, const Trajectory& actual) {
  ASSERT_EQ(expected.iterations.size(), actual.iterations.size());
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    ASSERT_EQ(expected.iterations[i], actual.iterations[i]) << "check " << i;
    // Bitwise: the banded kernel must not perturb a single residual.
    ASSERT_EQ(expected.residuals[i], actual.residuals[i])
        << "residual at iteration " << expected.iterations[i];
  }
}

TEST(GoldenTrajectory, DefaultFacadeSolveMatchesClassicOperatorBitForBit) {
  // The default-options facade call (shifted symmetric iteration) against
  // the reference operator, on both a structured and a random landscape.
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscapes = {core::Landscape::single_peak(nu, 2.0, 1.0),
                           core::Landscape::random(nu, 5.0, 1.0, 11)};
  for (const auto& landscape : landscapes) {
    PowerResult reference;
    const Trajectory expected = classic_reference(model, landscape, reference);
    ASSERT_TRUE(reference.converged);

    Trajectory actual;
    SolveOptions options;
    options.on_residual = [&actual](unsigned it, double res) {
      actual.iterations.push_back(it);
      actual.residuals.push_back(res);
    };
    const auto result = solve(model, landscape, options);
    ASSERT_TRUE(result.converged);

    expect_same_trajectory(expected, actual);
    ASSERT_EQ(reference.eigenvalue, result.eigenvalue);
    ASSERT_EQ(reference.iterations, result.iterations);
    ASSERT_EQ(reference.eigenvector.size(), result.concentrations.size());
    for (std::size_t i = 0; i < reference.eigenvector.size(); ++i) {
      ASSERT_EQ(reference.eigenvector[i], result.concentrations[i])
          << "concentration " << i;
    }
  }
}

TEST(GoldenTrajectory, AsymmetricModelUnshiftedSolveMatchesClassic) {
  // Per-site asymmetric factors: the facade cannot shift (model not
  // symmetric), so this pins the plain unshifted trajectory through the
  // banded kernel.
  const unsigned nu = 9;
  std::vector<transforms::Factor2> sites;
  Xoshiro256 rng(3);
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(transforms::Factor2::asymmetric(rng.uniform(0.001, 0.1),
                                                    rng.uniform(0.001, 0.1)));
  }
  const auto model = core::MutationModel::per_site(sites);
  const auto landscape = core::Landscape::random(nu, 4.0, 1.0, 19);

  PowerResult reference;
  const Trajectory expected = classic_reference(model, landscape, reference);
  ASSERT_TRUE(reference.converged);

  Trajectory actual;
  SolveOptions options;
  options.on_residual = [&actual](unsigned it, double res) {
    actual.iterations.push_back(it);
    actual.residuals.push_back(res);
  };
  const auto result = solve(model, landscape, options);
  ASSERT_TRUE(result.converged);
  expect_same_trajectory(expected, actual);
  ASSERT_EQ(reference.eigenvalue, result.eigenvalue);
}

TEST(GoldenTrajectory, ResidualStreamInvariantAcrossSvKernelTiers) {
  // The end-to-end form of the microkernel bit-identity contract: forcing
  // any single-vector kernel tier (including the scalar table) through
  // the facade produces the IDENTICAL residual stream.  A user switching
  // plans between machines reproduces their trajectories exactly.
  const unsigned nu = 11;
  const auto model = core::MutationModel::uniform(nu, 0.015);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);

  Trajectory reference;
  double reference_eigenvalue = 0.0;
  for (transforms::SvKernel tier :
       {transforms::SvKernel::scalar, transforms::SvKernel::automatic,
        transforms::SvKernel::avx2, transforms::SvKernel::avx512}) {
    Trajectory t;
    SolveOptions options;
    options.plan.sv_kernel = tier;
    options.on_residual = [&t](unsigned it, double res) {
      t.iterations.push_back(it);
      t.residuals.push_back(res);
    };
    const auto result = solve(model, landscape, options);
    ASSERT_TRUE(result.converged) << to_string(tier);
    if (reference.iterations.empty()) {
      reference = t;
      reference_eigenvalue = result.eigenvalue;
    } else {
      SCOPED_TRACE(to_string(tier));
      expect_same_trajectory(reference, t);
      ASSERT_EQ(reference_eigenvalue, result.eigenvalue);
    }
  }
}

TEST(GoldenTrajectory, GroupedModelSolveMatchesClassicBitForBit) {
  // Grouped models (Eq. (11)) run the group-banded Kronecker kernel; their
  // unshifted trajectory must equal the reference's serial factor sweeps.
  const unsigned nu = 8;
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  std::vector<linalg::DenseMatrix> groups;
  for (unsigned g = 0; g < 4; ++g) {
    linalg::DenseMatrix f(4, 4);
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t row = 0; row < 4; ++row) {
        f(row, c) = row == c ? 0.94 : 0.02;
      }
    }
    groups.push_back(std::move(f));
  }
  const auto grouped = core::MutationModel::grouped(groups);

  PowerResult reference;
  const Trajectory expected = classic_reference(grouped, landscape, reference);
  ASSERT_TRUE(reference.converged);

  Trajectory actual;
  SolveOptions options;
  options.on_residual = [&actual](unsigned it, double res) {
    actual.iterations.push_back(it);
    actual.residuals.push_back(res);
  };
  const auto result = solve(grouped, landscape, options);
  ASSERT_TRUE(result.converged);
  expect_same_trajectory(expected, actual);
  ASSERT_EQ(reference.eigenvalue, result.eigenvalue);
  ASSERT_EQ(reference.eigenvector.size(), result.concentrations.size());
  for (std::size_t i = 0; i < reference.eigenvector.size(); ++i) {
    ASSERT_EQ(reference.eigenvector[i], result.concentrations[i])
        << "concentration " << i;
  }
}

}  // namespace
}  // namespace qs::solvers
