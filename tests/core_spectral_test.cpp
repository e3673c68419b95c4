// Unit tests for the spectral operations on Q (Sections 2 and 3).
#include "core/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/site_process.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "reference/explicit_q.hpp"
#include "reference/shift_invert.hpp"
#include "support/binomial.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::core {
namespace {

TEST(Spectral, QEigenvaluesArePowersWithBinomialMultiplicities) {
  // Section 2: Q(nu) has eigenvalues (1-2p)^k with multiplicity C(nu, k).
  const unsigned nu = 6;
  const double p = 0.1;
  const auto model = MutationModel::uniform(nu, p);
  const auto q = build_q_dense(model);
  const auto eigen = linalg::jacobi_eigen(q);

  std::map<unsigned, unsigned> multiplicity;
  for (double lambda : eigen.values) {
    EXPECT_GT(lambda, 0.0);  // positive definite for p < 1/2
    // Match to the nearest power of (1 - 2p).
    const double k_real = std::log(lambda) / std::log(1.0 - 2.0 * p);
    const unsigned k = static_cast<unsigned>(std::lround(k_real));
    EXPECT_NEAR(lambda, std::pow(1.0 - 2.0 * p, k), 1e-12);
    ++multiplicity[k];
  }
  BinomialRow row(nu);
  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_EQ(multiplicity[k], row.exact(k)) << "k=" << k;
  }
}

TEST(Spectral, ApplyQSpectralMatchesButterfly) {
  const unsigned nu = 10;
  const auto model = MutationModel::uniform(nu, 0.07);
  const std::size_t n = 1024;
  std::vector<double> a(n), b(n);
  Xoshiro256 rng(2);
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = rng.uniform(-1.0, 1.0);
  model.apply(a);             // butterfly product
  apply_q_spectral(model, b); // FWHT-diagonalised product
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Spectral, ApplyQSpectralWorksForPerSiteSymmetric) {
  std::vector<transforms::Factor2> sites{uniform_site(0.02), uniform_site(0.1),
                                         uniform_site(0.3), uniform_site(0.25)};
  const auto model = MutationModel::per_site(sites);
  std::vector<double> a(16), b(16);
  Xoshiro256 rng(3);
  for (std::size_t i = 0; i < 16; ++i) a[i] = b[i] = rng.uniform(-1.0, 1.0);
  model.apply(a);
  apply_q_spectral(model, b);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(a[i], b[i], 1e-13);
}

TEST(Spectral, ShiftInvertComposedWithShiftIsIdentity) {
  // (Q - mu I)^{-1} applied after (Q - mu I) must restore the input.
  const unsigned nu = 8;
  const auto model = MutationModel::uniform(nu, 0.05);
  const double mu = 0.3;  // below lambda_min? No: any mu != eigenvalue works
  const std::size_t n = 256;
  std::vector<double> v(n), orig(n);
  Xoshiro256 rng(4);
  for (std::size_t i = 0; i < n; ++i) v[i] = orig[i] = rng.uniform(-1.0, 1.0);

  // v <- (Q - mu I) v.
  std::vector<double> qv = v;
  model.apply(qv);
  for (std::size_t i = 0; i < n; ++i) v[i] = qv[i] - mu * v[i];
  apply_q_shift_invert(model, mu, v);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v[i], orig[i], 1e-10);
}

TEST(Spectral, ShiftInvertRejectsEigenvalueShift) {
  const auto model = MutationModel::uniform(4, 0.1);
  std::vector<double> v(16, 1.0);
  EXPECT_THROW(apply_q_shift_invert(model, 1.0, v), precondition_error);
  const double lam2 = std::pow(0.8, 2);
  EXPECT_THROW(apply_q_shift_invert(model, lam2, v), precondition_error);
}

TEST(Spectral, QMinEigenvalue) {
  const auto model = MutationModel::uniform(7, 0.12);
  EXPECT_NEAR(q_min_eigenvalue(model), std::pow(1.0 - 0.24, 7), 1e-15);
}

TEST(Spectral, ConservativeShiftIsBelowSmallestEigenvalueOfW) {
  // Section 3: mu = (1-2p)^nu f_min <= lambda_min(W).  Verify on a dense
  // symmetric-formulation spectrum.
  const unsigned nu = 6;
  const double p = 0.08;
  const auto model = MutationModel::uniform(nu, p);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 9);
  const double mu = conservative_shift(model, landscape);
  EXPECT_NEAR(mu, std::pow(1.0 - 2.0 * p, nu) * landscape.min_fitness(), 1e-15);

  const auto w_sym = build_w_dense(model, landscape, Formulation::symmetric);
  const auto eigen = linalg::jacobi_eigen(w_sym);
  const double lambda_min = eigen.values.back();
  EXPECT_GT(lambda_min, 0.0);       // W positive definite
  EXPECT_LE(mu, lambda_min + 1e-15);
}

TEST(Spectral, DominantUpperBoundHolds) {
  const unsigned nu = 6;
  const auto model = MutationModel::uniform(nu, 0.03);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 10);
  const auto w_sym = build_w_dense(model, landscape, Formulation::symmetric);
  const auto eigen = linalg::jacobi_eigen(w_sym);
  EXPECT_LE(eigen.values[0], dominant_upper_bound(landscape) + 1e-12);
}

TEST(Spectral, ErrorClassShiftMatchesExpandedShift) {
  const unsigned nu = 8;
  const auto model = MutationModel::uniform(nu, 0.06);
  const auto ecl = ErrorClassLandscape::linear(nu, 2.0, 1.0);
  EXPECT_NEAR(conservative_shift(model, ecl),
              conservative_shift(model, ecl.expand()), 1e-15);
}

TEST(Spectral, RejectsUnsupportedModels) {
  const auto grouped =
      MutationModel::grouped({coupled_single_flip_group(2, 0.2)});
  std::vector<double> v(4, 1.0);
  EXPECT_THROW(apply_q_spectral(grouped, v), precondition_error);
  EXPECT_THROW(q_min_eigenvalue(grouped), precondition_error);
  EXPECT_THROW(apply_q_shift_invert(grouped, 0.0, v), precondition_error);

  const auto asym = MutationModel::per_site(
      {transforms::Factor2::asymmetric(0.3, 0.1),
       transforms::Factor2::asymmetric(0.1, 0.1)});
  std::vector<double> v4(4, 1.0);
  EXPECT_THROW(apply_q_spectral(asym, v4), precondition_error);
  EXPECT_THROW(apply_q_shift_invert(asym, 0.0, v4), precondition_error);

  const auto model = MutationModel::uniform(2, 0.1);
  std::vector<double> wrong(8, 1.0);
  EXPECT_THROW(apply_q_shift_invert(model, 0.0, wrong), precondition_error);
}

}  // namespace
}  // namespace qs::core
