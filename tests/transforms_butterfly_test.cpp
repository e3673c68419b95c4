// Unit tests for the 2x2-factor Kronecker butterfly transforms.
#include "reference/butterfly.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "linalg/dense_matrix.hpp"
#include "reference/kronecker.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::transforms {
namespace {

linalg::DenseMatrix factor_to_dense(const Factor2& f) {
  linalg::DenseMatrix m(2, 2);
  m(0, 0) = f.m00; m(0, 1) = f.m01;
  m(1, 0) = f.m10; m(1, 1) = f.m11;
  return m;
}

/// Dense matrix represented by the factor list (factor 0 = LSB), i.e.
/// F_{nu-1} (x) ... (x) F_0.
linalg::DenseMatrix factors_to_dense(std::span<const Factor2> factors) {
  linalg::DenseMatrix acc = factor_to_dense(factors[0]);
  for (std::size_t k = 1; k < factors.size(); ++k) {
    acc = kronecker_dense(factor_to_dense(factors[k]), acc);
  }
  return acc;
}

TEST(Factor2, UniformAndAsymmetricConstruction) {
  const Factor2 u = Factor2::uniform(0.1);
  EXPECT_DOUBLE_EQ(u.m00, 0.9);
  EXPECT_DOUBLE_EQ(u.m01, 0.1);
  EXPECT_DOUBLE_EQ(u.m10, 0.1);
  EXPECT_DOUBLE_EQ(u.m11, 0.9);
  EXPECT_NEAR(u.stochastic_deviation(), 0.0, 1e-16);

  const Factor2 a = Factor2::asymmetric(0.2, 0.05);
  EXPECT_DOUBLE_EQ(a.m10, 0.2);   // P(1 after | 0 before)
  EXPECT_DOUBLE_EQ(a.m01, 0.05);  // P(0 after | 1 before)
  EXPECT_NEAR(a.stochastic_deviation(), 0.0, 1e-16);
}

TEST(Butterfly, SingleLevelMatchesDenseKronecker) {
  // One level of stride 2^k is I (x) F (x) I with F on bit k.
  const Factor2 f = Factor2::asymmetric(0.3, 0.1);
  const unsigned nu = 4;
  const std::size_t n = 16;
  for (unsigned k = 0; k < nu; ++k) {
    std::vector<Factor2> identity_factors(nu, Factor2{});
    identity_factors[k] = f;
    const linalg::DenseMatrix dense = factors_to_dense(identity_factors);

    std::vector<double> v(n), expected(n);
    Xoshiro256 rng(k);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    dense.multiply(v, expected);
    apply_butterfly_level(v, f, k);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v[i], expected[i], 1e-14);
  }
}

TEST(Butterfly, FullTransformMatchesDense) {
  for (unsigned nu : {1u, 2u, 5u, 8u}) {
    std::vector<Factor2> factors;
    Xoshiro256 rng(nu * 7 + 1);
    for (unsigned k = 0; k < nu; ++k) {
      factors.push_back(Factor2::asymmetric(rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)));
    }
    const linalg::DenseMatrix dense = factors_to_dense(factors);
    const std::size_t n = std::size_t{1} << nu;
    std::vector<double> v(n), expected(n);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    dense.multiply(v, expected);
    apply_butterfly(v, factors);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(v[i], expected[i], 1e-13) << "nu=" << nu;
    }
  }
}

TEST(Butterfly, LevelOrdersAgree) {
  // Eq. (9) vs Eq. (10): ascending and descending orders compute the same
  // product because the level operators commute.
  const unsigned nu = 10;
  const std::size_t n = 1024;
  std::vector<Factor2> factors;
  Xoshiro256 rng(3);
  for (unsigned k = 0; k < nu; ++k) {
    factors.push_back(Factor2::uniform(rng.uniform(0.01, 0.49)));
  }
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = rng.uniform(-1.0, 1.0);
  apply_butterfly(a, factors, LevelOrder::ascending);
  apply_butterfly(b, factors, LevelOrder::descending);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(a[i], b[i], 1e-13);
}

TEST(Butterfly, UniformSpecialCaseMatchesGeneral) {
  const unsigned nu = 8;
  const std::size_t n = 256;
  const double p = 0.03;
  std::vector<Factor2> factors(nu, Factor2::uniform(p));
  std::vector<double> a(n), b(n);
  Xoshiro256 rng(6);
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = rng.uniform(0.0, 1.0);
  apply_butterfly(a, factors);
  apply_uniform_butterfly(b, p);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Butterfly, PreservesTotalMassForStochasticFactors) {
  // Column-stochastic transforms preserve the component sum.
  const std::size_t n = 128;
  std::vector<Factor2> factors;
  Xoshiro256 rng(12);
  for (unsigned k = 0; k < 7; ++k) {
    factors.push_back(Factor2::asymmetric(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)));
  }
  std::vector<double> v(n);
  double mass = 0.0;
  for (double& x : v) {
    x = rng.uniform(0.0, 1.0);
    mass += x;
  }
  apply_butterfly(v, factors);
  double after = 0.0;
  for (double x : v) after += x;
  EXPECT_NEAR(after, mass, 1e-12 * mass);
}

TEST(Butterfly, RejectsBadArguments) {
  std::vector<double> v(8);
  std::vector<Factor2> two(2);  // needs 3 for length 8
  EXPECT_THROW(apply_butterfly(v, two), qs::precondition_error);
  std::vector<double> odd(6);
  std::vector<Factor2> three(3);
  EXPECT_THROW(apply_butterfly(odd, three), qs::precondition_error);
  EXPECT_THROW(apply_butterfly_level(v, Factor2{}, 3), qs::precondition_error);
}

}  // namespace
}  // namespace qs::transforms
