// Verifications of the paper's side statements that no other suite covers:
// footnote 2 (Gray-code ordering), Eq. (12) (the inverse mutation matrix),
// the norm bounds of Section 3, and the Xmvp(1) complexity remark of
// Section 2.1.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/dense_matrix.hpp"
#include "reference/explicit_q.hpp"
#include "reference/xmvp.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/binomial.hpp"
#include "support/bits.hpp"

namespace qs {
namespace {

TEST(PaperClaims, Footnote2GrayCodeGivesConstantFirstOffDiagonals) {
  // "using the Gray code as permutation would deliver a matrix Q where the
  // first diagonal above and below the main diagonal are constant. This
  // comes from ... d_H(X_i, X_{i+1}) = 1 for all i."
  const unsigned nu = 8;
  const double p = 0.04;
  const auto model = core::MutationModel::uniform(nu, p);
  const seq_t n = sequence_count(nu);

  const double expected = model.class_value(1);  // p (1-p)^{nu-1}
  for (seq_t i = 0; i + 1 < n; ++i) {
    // Permuted matrix entry Q_{pi(i), pi(i+1)} with pi = gray_code.
    EXPECT_DOUBLE_EQ(model.entry(gray_code(i), gray_code(i + 1)), expected);
    EXPECT_DOUBLE_EQ(model.entry(gray_code(i + 1), gray_code(i)), expected);
  }
}

TEST(PaperClaims, Equation12InverseMutationMatrix) {
  // Q(nu)^{-1} = (1-2p)^{-nu} (x)_k [[1-p, -p], [-p, 1-p]], with absolute
  // row and column sums all (1-2p)^{-nu}.
  const unsigned nu = 6;
  const double p = 0.08;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto q = core::build_q_dense(model);
  const std::size_t n = 64;

  // Build the claimed inverse explicitly.
  linalg::DenseMatrix claimed(n, n);
  const double scale = std::pow(1.0 - 2.0 * p, -static_cast<double>(nu));
  for (seq_t i = 0; i < n; ++i) {
    for (seq_t j = 0; j < n; ++j) {
      const unsigned d = hamming_distance(i, j);
      claimed(i, j) = scale * std::pow(-p, static_cast<double>(d)) *
                      std::pow(1.0 - p, static_cast<double>(nu - d));
    }
  }
  const auto product = q.multiply(claimed);
  EXPECT_LT(product.max_abs_distance(linalg::DenseMatrix::identity(n)), 1e-10);

  // Absolute row sums: sum_j |claimed_ij| = scale * sum_d C(nu,d) p^d
  // (1-p)^{nu-d} = scale.
  for (seq_t i = 0; i < n; ++i) {
    double abs_sum = 0.0;
    for (seq_t j = 0; j < n; ++j) abs_sum += std::abs(claimed(i, j));
    EXPECT_NEAR(abs_sum, scale, 1e-10 * scale);
  }
}

TEST(PaperClaims, Section3NormBounds) {
  // lambda_0 <= ||W||_1 <= f_max and lambda_min >= (1-2p)^nu f_min,
  // verified against the actual dense 1-norm (max absolute column sum).
  const unsigned nu = 6;
  const double p = 0.05;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 17);
  const auto w = core::build_w_dense(model, landscape, core::Formulation::right);

  double norm1 = 0.0;
  for (std::size_t j = 0; j < w.cols(); ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) col += std::abs(w(i, j));
    norm1 = std::max(norm1, col);
  }
  // ||W||_1 = max_j f_j * (column sum of Q = 1) = f_max exactly here.
  EXPECT_NEAR(norm1, landscape.max_fitness(), 1e-12);
}

TEST(PaperClaims, Xmvp1CostIsNPlusOneTerms) {
  // Section 2.1: Xmvp(1) touches N (nu + 1) terms — pattern count nu + 1.
  const unsigned nu = 12;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::flat(nu, 1.0);
  const core::XmvpOperator xmvp1(model, landscape, 1);
  EXPECT_EQ(xmvp1.pattern_count(), nu + 1u);
}

TEST(PaperClaims, QEntriesTakeOnlyNuPlusOneValues) {
  // "the entire matrix Q contains only nu + 1 different values."
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.09);
  std::vector<double> classes(nu + 1);
  for (unsigned k = 0; k <= nu; ++k) classes[k] = model.class_value(k);
  for (seq_t i = 0; i < 128; i += 3) {
    for (seq_t j = 0; j < 128; j += 5) {
      EXPECT_DOUBLE_EQ(model.entry(i, j), classes[hamming_distance(i, j)]);
    }
  }
}

TEST(PaperClaims, ErrorClassCardinalitiesAreBinomial) {
  // "Gamma_k contains C(nu, k) sequences."
  const unsigned nu = 12;
  BinomialRow row(nu);
  std::vector<std::size_t> counts(nu + 1, 0);
  for (seq_t i = 0; i < sequence_count(nu); ++i) ++counts[hamming_weight(i)];
  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_EQ(counts[k], row.exact(k));
  }
}

TEST(PaperClaims, EquallyFitSequencesGiveTheUniformDistribution) {
  // Section 1.1: "in the special case where all values in F are equal the
  // problem reduces to ... an eigenvector where all entries are equal."
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.07);
  const auto landscape = core::Landscape::flat(nu, 1.7);
  const auto result = solvers::solve(model, landscape);
  ASSERT_TRUE(result.converged);
  const double uniform = 1.0 / static_cast<double>(sequence_count(nu));
  for (double x : result.concentrations) EXPECT_NEAR(x, uniform, 1e-12);
}

TEST(PaperClaims, RandomReplicationExactlyAtOneHalf) {
  // Section 1.1: "random replication as exact solution of the ODE system is
  // obtained only for p = 0.5" — at p = 1/2 the quasispecies is uniform for
  // *any* landscape.
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.5);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 23);
  const auto result = solvers::solve(model, landscape);
  ASSERT_TRUE(result.converged);
  const double uniform = 1.0 / static_cast<double>(sequence_count(nu));
  for (double x : result.concentrations) EXPECT_NEAR(x, uniform, 1e-10);
}

}  // namespace
}  // namespace qs
