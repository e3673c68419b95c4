// Unit tests for the matrix-free Krylov solvers (CG and MINRES).
#include "reference/krylov.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/dense_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::linalg {
namespace {

DenseMatrix random_spd(std::size_t n, std::uint64_t seed, double diag_boost) {
  DenseMatrix m(n, n);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = rng.uniform(-1.0, 1.0);
      m(j, i) = m(i, j);
    }
    m(i, i) += diag_boost;
  }
  return m;
}

ApplyFn dense_apply(const DenseMatrix& a) {
  return [&a](std::span<const double> x, std::span<double> y) { a.multiply(x, y); };
}

TEST(ConjugateGradient, SolvesSpdSystem) {
  const std::size_t n = 40;
  const auto a = random_spd(n, 1, 5.0);
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  Xoshiro256 rng(2);
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  a.multiply(x_true, b);

  const auto r = conjugate_gradient(dense_apply(a), b, x);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-9);
}

TEST(ConjugateGradient, ExactPreconditionerConvergesInOneIteration) {
  const std::size_t n = 20;
  const auto a = random_spd(n, 3, 4.0);
  const LuFactorization lu(a);
  ApplyFn inv = [&](std::span<const double> in, std::span<double> out) {
    copy(in, out);
    lu.solve(out);
  };
  std::vector<double> b(n), x(n, 0.0);
  Xoshiro256 rng(4);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto r = conjugate_gradient(dense_apply(a), b, x, {}, inv);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2u);
}

TEST(ConjugateGradient, PreconditionerReducesIterations) {
  // Diagonal (Jacobi) preconditioner on a badly scaled SPD matrix.
  const std::size_t n = 60;
  DenseMatrix a = random_spd(n, 5, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::pow(10.0, static_cast<double>(i % 4));
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) *= s;
      a(j, i) *= s;
    }
  }
  std::vector<double> b(n), x0(n, 0.0), x1(n, 0.0);
  Xoshiro256 rng(6);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  const auto plain = conjugate_gradient(dense_apply(a), b, x0);
  ApplyFn jacobi = [&](std::span<const double> in, std::span<double> out) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] / a(i, i);
  };
  const auto preconditioned = conjugate_gradient(dense_apply(a), b, x1, {}, jacobi);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(preconditioned.converged);
  EXPECT_LT(preconditioned.iterations, plain.iterations);
  EXPECT_LT(max_abs_diff(x0, x1), 1e-6);
}

TEST(ConjugateGradient, ZeroRhsGivesZeroSolution) {
  const auto a = random_spd(10, 7, 3.0);
  std::vector<double> b(10, 0.0), x(10, 1.0);
  const auto r = conjugate_gradient(dense_apply(a), b, x);
  EXPECT_TRUE(r.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradient, WarmStartHelps) {
  const std::size_t n = 30;
  const auto a = random_spd(n, 8, 4.0);
  std::vector<double> x_true(n), b(n);
  Xoshiro256 rng(9);
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  a.multiply(x_true, b);

  std::vector<double> cold(n, 0.0);
  const auto cold_result = conjugate_gradient(dense_apply(a), b, cold);
  std::vector<double> warm = x_true;
  warm[0] += 1e-6;
  const auto warm_result = conjugate_gradient(dense_apply(a), b, warm);
  ASSERT_TRUE(cold_result.converged);
  ASSERT_TRUE(warm_result.converged);
  EXPECT_LT(warm_result.iterations, cold_result.iterations);
}

TEST(Minres, SolvesIndefiniteSystem) {
  // Symmetric indefinite: shifted SPD with the shift inside the spectrum.
  const std::size_t n = 40;
  DenseMatrix a = random_spd(n, 10, 5.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= 5.0;  // mixes signs
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  Xoshiro256 rng(11);
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  a.multiply(x_true, b);

  const auto r = minres(dense_apply(a), b, x, {1e-13, 2000});
  ASSERT_TRUE(r.converged);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

TEST(Minres, AgreesWithCgOnSpd) {
  const std::size_t n = 30;
  const auto a = random_spd(n, 12, 4.0);
  std::vector<double> b(n), x_cg(n, 0.0), x_mr(n, 0.0);
  Xoshiro256 rng(13);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto rc = conjugate_gradient(dense_apply(a), b, x_cg);
  const auto rm = minres(dense_apply(a), b, x_mr);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rm.converged);
  EXPECT_LT(max_abs_diff(x_cg, x_mr), 1e-8);
}

TEST(Minres, ResidualEstimateMatchesTrueResidual) {
  const std::size_t n = 25;
  DenseMatrix a = random_spd(n, 14, 3.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= 2.0;
  std::vector<double> b(n), x(n, 0.0), r_vec(n);
  Xoshiro256 rng(15);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto r = minres(dense_apply(a), b, x, {1e-10, 2000});
  ASSERT_TRUE(r.converged);
  a.multiply(x, r_vec);
  for (std::size_t i = 0; i < n; ++i) r_vec[i] = b[i] - r_vec[i];
  const double true_rel = norm2(r_vec) / norm2(b);
  EXPECT_NEAR(true_rel, r.relative_residual, 1e-8);
}

TEST(Krylov, ReportNonConvergenceHonestly) {
  const auto a = random_spd(50, 16, 0.5);
  std::vector<double> b(50, 1.0), x(50, 0.0);
  KrylovOptions strict;
  strict.max_iterations = 2;
  strict.tolerance = 1e-15;
  EXPECT_FALSE(conjugate_gradient(dense_apply(a), b, x, strict).converged);
  std::vector<double> x2(50, 0.0);
  EXPECT_FALSE(minres(dense_apply(a), b, x2, strict).converged);
}

// Caller work vectors left dirty by an earlier solve give the bits of a
// fresh allocation and keep their buffer: an eigensolver's outer loop
// passes one set to every inner solve.
TEST(ConjugateGradient, DirtyCallerWorkVectorsGiveTheBitsOfAFreshSolve) {
  const std::size_t n = 30;
  const auto a = random_spd(n, 17, 4.0);
  std::vector<double> b(n), fresh(n, 0.0), x(n, 0.0);
  Xoshiro256 rng(18);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  conjugate_gradient(dense_apply(a), b, fresh);

  std::vector<double> work(7 * n, std::nan(""));
  const double* buffer = work.data();
  KrylovOptions options;
  options.work = &work;
  conjugate_gradient(dense_apply(a), b, x, options);
  EXPECT_EQ(x, fresh);
  EXPECT_EQ(work.data(), buffer);
}

TEST(Minres, DirtyCallerWorkVectorsGiveTheBitsOfAFreshSolve) {
  const std::size_t n = 30;
  DenseMatrix a = random_spd(n, 19, 3.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= 2.0;  // indefinite
  std::vector<double> b(n), fresh(n, 0.0);
  Xoshiro256 rng(20);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  minres(dense_apply(a), b, fresh);

  std::vector<double> work;
  KrylovOptions options;
  options.work = &work;
  const auto spd = random_spd(n, 21, 4.0);
  std::vector<double> first(n, 0.0), second(n, 0.0), cg(n, 0.0);
  minres(dense_apply(a), b, first, options);
  const double* buffer = work.data();
  conjugate_gradient(dense_apply(spd), b, cg, options);
  minres(dense_apply(a), b, second, options);
  EXPECT_EQ(first, fresh);
  EXPECT_EQ(second, fresh);
  EXPECT_EQ(work.data(), buffer);
}

TEST(Krylov, RejectBadArguments) {
  std::vector<double> b(4, 1.0), x(3, 0.0);
  ApplyFn id = [](std::span<const double> in, std::span<double> out) {
    copy(in, out);
  };
  EXPECT_THROW(conjugate_gradient(id, b, x), qs::precondition_error);
  EXPECT_THROW(minres(id, b, x), qs::precondition_error);
  std::vector<double> x4(4, 0.0);
  EXPECT_THROW(conjugate_gradient(nullptr, b, x4), qs::precondition_error);
}

}  // namespace
}  // namespace qs::linalg
