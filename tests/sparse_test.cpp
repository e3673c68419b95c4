// Unit tests for the CSR substrate and the materialised truncated W.
#include <gtest/gtest.h>

#include "core/fmmp.hpp"
#include "linalg/vector_ops.hpp"
#include "reference/csr.hpp"
#include "reference/sparse_w.hpp"
#include "reference/xmvp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::sparse {
namespace {

TEST(Csr, KnownSmallMatrix) {
  // [[1, 0, 2], [0, 0, 0], [3, 4, 0]]
  CsrMatrix m(3, 3, {0, 2, 2, 4}, {0, 2, 0, 1}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(m.nonzeros(), 4u);
  std::vector<double> x{1.0, 10.0, 100.0};
  std::vector<double> y(3);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 201.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 43.0);
}

TEST(Csr, RoundTripsThroughDense) {
  Xoshiro256 rng(1);
  linalg::DenseMatrix dense(8, 6);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      dense(r, c) = (rng.uniform() < 0.3) ? rng.uniform(-1.0, 1.0) : 0.0;
    }
  }
  const auto csr = csr_from_dense(dense);
  EXPECT_LT(csr.to_dense().max_abs_distance(dense), 1e-15);

  std::vector<double> x(6), y_dense(8), y_csr(8);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  dense.multiply(x, y_dense);
  csr.multiply(x, y_csr);
  EXPECT_LT(linalg::max_abs_diff(y_dense, y_csr), 1e-14);
}

TEST(Csr, EngineMultiplyMatchesSerial) {
  Xoshiro256 rng(2);
  linalg::DenseMatrix dense(64, 64);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      dense(r, c) = (rng.uniform() < 0.2) ? rng.uniform(0.0, 1.0) : 0.0;
    }
  }
  const auto csr = csr_from_dense(dense);
  std::vector<double> x(64), serial(64), parallel_y(64);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  csr.multiply(x, serial);
  csr.multiply(x, parallel_y, parallel::parallel_engine());
  for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(serial[i], parallel_y[i]);
}

TEST(Csr, ThresholdDropsSmallEntries) {
  linalg::DenseMatrix dense(2, 2);
  dense(0, 0) = 1.0;
  dense(0, 1) = 1e-12;
  dense(1, 1) = 0.5;
  const auto csr = csr_from_dense(dense, 1e-10);
  EXPECT_EQ(csr.nonzeros(), 2u);
}

TEST(Csr, BuilderValidatesUsage) {
  CsrBuilder builder(2, 3);
  builder.push(0, 1.0);
  EXPECT_THROW(builder.push(0, 2.0), precondition_error);  // not ascending
  EXPECT_THROW(builder.push(3, 2.0), precondition_error);  // column range
  EXPECT_THROW(builder.build(), precondition_error);       // rows unfinished
  builder.finish_row();
  builder.finish_row();
  EXPECT_THROW(builder.finish_row(), precondition_error);
  const auto m = builder.build();
  EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(Csr, ConstructorValidatesInvariants) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), precondition_error);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 1}, {0, 1}, {1.0, 2.0}), precondition_error);
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {1, 0}, {1.0, 2.0}), precondition_error);
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), precondition_error);
}

TEST(SparseW, MatchesXmvpExactly) {
  // Same truncated product, two evaluation strategies.
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.015);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);
  const std::size_t n = 512;

  for (unsigned d : {1u, 3u, nu}) {
    const SparseWOperator sparse(model, landscape, d);
    const core::XmvpOperator xmvp(model, landscape, d);
    std::vector<double> x(n), y_sparse(n), y_xmvp(n);
    Xoshiro256 rng(d);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    sparse.apply(x, y_sparse);
    xmvp.apply(x, y_xmvp);
    EXPECT_LT(linalg::max_abs_diff(y_sparse, y_xmvp), 1e-13) << "d=" << d;
  }
}

TEST(SparseW, NonzeroCountIsBinomialSum) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::flat(nu, 1.0);
  const SparseWOperator sparse(model, landscape, 2);
  // nnz = N * (1 + C(10,1) + C(10,2)) = 1024 * 56.
  EXPECT_EQ(sparse.matrix().nonzeros(), 1024u * 56u);
  EXPECT_GT(sparse.matrix().memory_bytes(), 1024u * 56u * 8u);
}

TEST(SparseW, PowerIterationAgreesWithFmmp) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 5);

  const SparseWOperator sparse(model, landscape, nu);  // exact
  const auto sparse_result =
      solvers::power_iteration(sparse, solvers::landscape_start(landscape));
  ASSERT_TRUE(sparse_result.converged);

  const core::FmmpOperator fmmp(model, landscape);
  const auto fmmp_result =
      solvers::power_iteration(fmmp, solvers::landscape_start(landscape));
  EXPECT_NEAR(sparse_result.eigenvalue, fmmp_result.eigenvalue, 1e-11);
  EXPECT_LT(linalg::max_abs_diff(sparse_result.eigenvector, fmmp_result.eigenvector),
            1e-10);
}

TEST(SparseW, RejectsBadConfigurations) {
  const auto model = core::MutationModel::uniform(4, 0.1);
  const auto landscape = core::Landscape::flat(4, 1.0);
  EXPECT_THROW(SparseWOperator(model, landscape, 5), precondition_error);
  const auto per_site = core::MutationModel::per_site(
      {transforms::Factor2::uniform(0.1), transforms::Factor2::uniform(0.1),
       transforms::Factor2::uniform(0.1), transforms::Factor2::uniform(0.1)});
  EXPECT_THROW(SparseWOperator(per_site, landscape, 2), precondition_error);
}

}  // namespace
}  // namespace qs::sparse
