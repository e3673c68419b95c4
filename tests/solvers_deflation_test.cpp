// Unit tests for the spectral-gap / deflated power iteration diagnostics.
#include "reference/deflation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "reference/explicit_q.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

TEST(SpectralGap, MatchesDenseSpectrumTopTwo) {
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);

  const auto gap = spectral_gap(model, landscape);

  const auto w = core::build_w_dense(model, landscape, core::Formulation::symmetric);
  const auto dense = linalg::jacobi_eigen(w);
  EXPECT_NEAR(gap.lambda0, dense.values[0], 1e-8);
  EXPECT_NEAR(gap.lambda1, dense.values[1], 1e-6);
  EXPECT_LT(gap.ratio(), 1.0);
}

TEST(SpectralGap, ShiftImprovesTheRatio) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 5);
  const auto gap = spectral_gap(model, landscape);
  const double mu = core::conservative_shift(model, landscape);
  EXPECT_LT(gap.shifted_ratio(mu), gap.ratio());
}

TEST(SpectralGap, PredictsPowerIterationCount) {
  // The predictor must land within ~25 % of the observed iteration count on
  // a well-separated problem.
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const auto gap = spectral_gap(model, landscape);

  const core::FmmpOperator op(model, landscape);
  PowerOptions opts;
  opts.tolerance = 1e-12;
  const auto run = power_iteration(op, landscape_start(landscape), opts);
  ASSERT_TRUE(run.converged);

  // Residual decades from the start's overlap is roughly the tolerance
  // decades; allow generous slack for the unknown starting error.
  const double predicted = SpectralGap::predicted_iterations(gap.ratio(), 12.0);
  EXPECT_GT(predicted, 0.5 * run.iterations);
  EXPECT_LT(predicted, 2.5 * run.iterations);
}

TEST(SpectralGap, FlatLandscapeHasKnownGap) {
  // W = c Q: lambda_0 = c, lambda_1 = c (1 - 2p).
  const unsigned nu = 6;
  const double p = 0.07;
  const double c = 3.0;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::flat(nu, c);
  const auto gap = spectral_gap(model, landscape);
  EXPECT_NEAR(gap.lambda0, c, 1e-9);
  EXPECT_NEAR(gap.lambda1, c * (1.0 - 2.0 * p), 1e-7);
}

TEST(SpectralGap, PredictedIterationsValidatesInput) {
  EXPECT_THROW(SpectralGap::predicted_iterations(1.5, 10.0), precondition_error);
  EXPECT_THROW(SpectralGap::predicted_iterations(0.5, -1.0), precondition_error);
  EXPECT_NEAR(SpectralGap::predicted_iterations(0.1, 10.0), 10.0, 1e-12);
}

TEST(SpectralGap, RejectsUnsupportedModels) {
  const auto asym = core::MutationModel::per_site(
      {transforms::Factor2::asymmetric(0.3, 0.1),
       transforms::Factor2::asymmetric(0.1, 0.1)});
  const auto landscape = core::Landscape::flat(2, 1.0);
  EXPECT_THROW(spectral_gap(asym, landscape), precondition_error);
}

}  // namespace
}  // namespace qs::solvers
