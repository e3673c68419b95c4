// Unit tests for grouped Kronecker products.
#include "reference/kronecker.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::transforms {
namespace {

linalg::DenseMatrix random_stochastic(std::size_t n, std::uint64_t seed) {
  linalg::DenseMatrix m(n, n);
  Xoshiro256 rng(seed);
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      m(i, j) = rng.uniform(0.01, 1.0);
      col += m(i, j);
    }
    for (std::size_t i = 0; i < n; ++i) m(i, j) /= col;
  }
  return m;
}

TEST(KroneckerDense, KnownSmallProduct) {
  linalg::DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 3.0; a(1, 1) = 4.0;
  linalg::DenseMatrix b = linalg::DenseMatrix::identity(2);
  const linalg::DenseMatrix k = kronecker_dense(a, b);
  ASSERT_EQ(k.rows(), 4u);
  // A (x) I has A's entries on 2x2 diagonal blocks of scaled identities.
  EXPECT_DOUBLE_EQ(k(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(k(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(k(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(k(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(k(0, 1), 0.0);
}

TEST(KroneckerProduct, ApplyMatchesDense) {
  // Mixed group sizes: 2 x 4 x 2 = dimension 16.
  std::vector<linalg::DenseMatrix> factors{
      random_stochastic(2, 1), random_stochastic(4, 2), random_stochastic(2, 3)};
  const KroneckerProduct kp(factors);
  EXPECT_EQ(kp.dimension(), 16u);
  EXPECT_EQ(kp.total_bits(), 4u);

  const linalg::DenseMatrix dense = to_dense(kp);
  std::vector<double> v(16), expected(16);
  Xoshiro256 rng(5);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  dense.multiply(v, expected);
  apply_kronecker(v, kp);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(v[i], expected[i], 1e-13);
}

TEST(KroneckerProduct, SingleFactorIsThatMatrix) {
  const linalg::DenseMatrix f = random_stochastic(8, 7);
  const KroneckerProduct kp({f});
  std::vector<double> v(8), expected(8);
  Xoshiro256 rng(8);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  f.multiply(v, expected);
  apply_kronecker(v, kp);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(v[i], expected[i], 1e-14);
}

TEST(KroneckerProduct, StochasticFactorsGiveStochasticProduct) {
  std::vector<linalg::DenseMatrix> factors{random_stochastic(4, 11),
                                           random_stochastic(2, 12)};
  const KroneckerProduct kp(factors);
  EXPECT_LT(kp.stochastic_deviation(), 1e-12);
  EXPECT_LT(to_dense(kp).max_column_sum_deviation(), 1e-12);
}

TEST(KroneckerProduct, LsbConventionMatchesButterfly) {
  // factors[0] acts on the least significant bit: K = F1 (x) F0.
  linalg::DenseMatrix f0(2, 2), f1(2, 2);
  f0(0, 0) = 0.9; f0(0, 1) = 0.1; f0(1, 0) = 0.1; f0(1, 1) = 0.9;
  f1 = linalg::DenseMatrix::identity(2);
  const KroneckerProduct kp({f0, f1});
  // Applying to e_0 must mix indices 0 and 1 (bit 0), not 0 and 2.
  std::vector<double> v{1.0, 0.0, 0.0, 0.0};
  apply_kronecker(v, kp);
  EXPECT_DOUBLE_EQ(v[0], 0.9);
  EXPECT_DOUBLE_EQ(v[1], 0.1);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

TEST(KroneckerProduct, MassPreservation) {
  std::vector<linalg::DenseMatrix> factors{random_stochastic(4, 20),
                                           random_stochastic(4, 21)};
  const KroneckerProduct kp(factors);
  std::vector<double> v(16);
  Xoshiro256 rng(22);
  double mass = 0.0;
  for (double& x : v) {
    x = rng.uniform(0.0, 1.0);
    mass += x;
  }
  apply_kronecker(v, kp);
  double after = 0.0;
  for (double x : v) after += x;
  EXPECT_NEAR(after, mass, 1e-13 * mass);
}

TEST(KroneckerProduct, RejectsBadFactors) {
  EXPECT_THROW(KroneckerProduct({}), qs::precondition_error);
  EXPECT_THROW(KroneckerProduct({linalg::DenseMatrix(3, 3)}), qs::precondition_error);
  EXPECT_THROW(KroneckerProduct({linalg::DenseMatrix(2, 4)}), qs::precondition_error);
  EXPECT_THROW(KroneckerProduct({linalg::DenseMatrix(1, 1)}), qs::precondition_error);
}

TEST(KroneckerProduct, ApplyRejectsWrongDimension) {
  const KroneckerProduct kp({random_stochastic(4, 30)});
  std::vector<double> v(8);
  EXPECT_THROW(apply_kronecker(v, kp), qs::precondition_error);
}

}  // namespace
}  // namespace qs::transforms
