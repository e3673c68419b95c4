// Unit tests for the implicit mutation matrices.
#include "core/mutation_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/site_process.hpp"
#include "reference/butterfly.hpp"
#include "reference/explicit_q.hpp"
#include "reference/kronecker.hpp"
#include "support/binomial.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::core {
namespace {

TEST(MutationModelUniform, EntriesMatchEquationTwo) {
  // Q_{i,j} = p^{d_H} (1-p)^{nu - d_H}.
  const unsigned nu = 6;
  const double p = 0.07;
  const auto model = MutationModel::uniform(nu, p);
  for (seq_t i = 0; i < 64; i += 5) {
    for (seq_t j = 0; j < 64; j += 3) {
      const unsigned d = hamming_distance(i, j);
      const double expected = std::pow(p, d) * std::pow(1.0 - p, nu - d);
      EXPECT_NEAR(model.entry(i, j), expected, 1e-15);
    }
  }
}

TEST(MutationModelUniform, ClassValues) {
  const auto model = MutationModel::uniform(5, 0.1);
  EXPECT_NEAR(model.class_value(0), std::pow(0.9, 5), 1e-15);
  EXPECT_NEAR(model.class_value(5), std::pow(0.1, 5), 1e-15);
  EXPECT_NEAR(model.class_value(2), 0.01 * std::pow(0.9, 3), 1e-15);
}

TEST(MutationModelUniform, DenseQIsSymmetricColumnStochastic) {
  const auto model = MutationModel::uniform(7, 0.04);
  const auto q = build_q_dense(model);
  EXPECT_TRUE(q.is_symmetric(1e-15));
  EXPECT_LT(q.max_column_sum_deviation(), 1e-12);
}

TEST(MutationModelUniform, ApplyMatchesDense) {
  const unsigned nu = 8;
  const auto model = MutationModel::uniform(nu, 0.02);
  const auto q = build_q_dense(model);
  const std::size_t n = 256;
  std::vector<double> v(n), expected(n);
  Xoshiro256 rng(1);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  q.multiply(v, expected);
  model.apply(v);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v[i], expected[i], 1e-13);
}

TEST(MutationModelUniform, EngineApplyMatchesSerial) {
  const unsigned nu = 10;
  const auto model = MutationModel::uniform(nu, 0.05);
  const std::size_t n = 1024;
  std::vector<double> serial(n), engine_serial(n), engine_pool(n);
  Xoshiro256 rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    serial[i] = engine_serial[i] = engine_pool[i] = rng.uniform(0.0, 1.0);
  }
  transforms::apply_butterfly(serial, model.site_factors());
  model.apply(engine_serial, parallel::serial_engine());
  model.apply(engine_pool, parallel::parallel_engine());
  for (std::size_t i = 0; i < n; ++i) {
    // The banded kernel performs the identical per-element arithmetic, so
    // results are bit-identical to the serial Algorithm 1 butterfly.
    EXPECT_EQ(serial[i], engine_serial[i]);
    EXPECT_EQ(serial[i], engine_pool[i]);
  }
}

TEST(MutationModelUniform, RejectsInvalidParameters) {
  EXPECT_THROW(MutationModel::uniform(0, 0.1), precondition_error);
  EXPECT_THROW(MutationModel::uniform(1001, 0.1), precondition_error);
  EXPECT_THROW(MutationModel::uniform(5, 0.0), precondition_error);
  EXPECT_THROW(MutationModel::uniform(5, -0.1), precondition_error);
  EXPECT_THROW(MutationModel::uniform(5, 0.51), precondition_error);
}

TEST(MutationModelUniform, LargeChainsConstructibleButNotIndexable) {
  // Models beyond kMaxChainLength exist (the Kronecker solvers slice them),
  // but any operation that would index the 2^nu space must refuse.
  const auto model = MutationModel::uniform(100, 0.01);
  EXPECT_EQ(model.nu(), 100u);
  EXPECT_THROW(model.dimension(), precondition_error);
}

TEST(MutationModelUniform, WalshEigenvaluesArePowersOfOneMinusTwoP) {
  const unsigned nu = 6;
  const double p = 0.12;
  const auto model = MutationModel::uniform(nu, p);
  for (seq_t w = 0; w < 64; ++w) {
    EXPECT_NEAR(model.walsh_eigenvalue(w),
                std::pow(1.0 - 2.0 * p, hamming_weight(w)), 1e-15);
  }
}

TEST(MutationModelPerSite, ReducesToUniformWhenRatesEqual) {
  const unsigned nu = 7;
  const double p = 0.08;
  const auto uniform_model = MutationModel::uniform(nu, p);
  const auto per_site =
      MutationModel::per_site(std::vector<transforms::Factor2>(nu, uniform_site(p)));
  EXPECT_TRUE(per_site.symmetric());
  for (seq_t i = 0; i < 128; i += 11) {
    for (seq_t j = 0; j < 128; j += 7) {
      EXPECT_NEAR(per_site.entry(i, j), uniform_model.entry(i, j), 1e-15);
    }
  }
}

TEST(MutationModelPerSite, AsymmetricModelIsNotSymmetricButStochastic) {
  std::vector<transforms::Factor2> sites{asymmetric_site(0.2, 0.05),
                                         asymmetric_site(0.1, 0.1),
                                         asymmetric_site(0.0, 0.3)};
  const auto model = MutationModel::per_site(sites);
  EXPECT_FALSE(model.symmetric());
  const auto q = build_q_dense(model);
  EXPECT_LT(q.max_column_sum_deviation(), 1e-12);
  EXPECT_FALSE(q.is_symmetric(1e-6));
}

TEST(MutationModelPerSite, ApplyMatchesDense) {
  std::vector<transforms::Factor2> sites;
  Xoshiro256 rng(9);
  for (unsigned k = 0; k < 6; ++k) {
    sites.push_back(asymmetric_site(rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)));
  }
  const auto model = MutationModel::per_site(sites);
  const auto q = build_q_dense(model);
  const std::size_t n = 64;
  std::vector<double> v(n), expected(n);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  q.multiply(v, expected);
  model.apply(v);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v[i], expected[i], 1e-13);
}

TEST(MutationModelPerSite, RejectsNonStochasticFactor) {
  transforms::Factor2 bad{0.5, 0.5, 0.2, 0.5};  // column 0 sums to 0.7
  EXPECT_THROW(MutationModel::per_site({bad}), precondition_error);
}

TEST(MutationModelGrouped, MatchesDenseKronecker) {
  const auto g1 = coupled_single_flip_group(2, 0.3);
  const auto g2 = coupled_single_flip_group(3, 0.2);
  const auto model = MutationModel::grouped({g1, g2});
  EXPECT_EQ(model.nu(), 5u);
  EXPECT_EQ(model.dimension(), 32u);

  const auto q = build_q_dense(model);
  EXPECT_LT(q.max_column_sum_deviation(), 1e-12);

  std::vector<double> v(32), expected(32);
  Xoshiro256 rng(10);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  q.multiply(v, expected);
  model.apply(v);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_NEAR(v[i], expected[i], 1e-13);
}

TEST(MutationModelGrouped, EngineApplyMatchesSerial) {
  const auto model = MutationModel::grouped(
      {coupled_single_flip_group(2, 0.25), coupled_single_flip_group(2, 0.15)});
  std::vector<double> serial(16), via_engine(16);
  Xoshiro256 rng(11);
  for (std::size_t i = 0; i < 16; ++i) serial[i] = via_engine[i] = rng.uniform(0.0, 1.0);
  transforms::apply_kronecker(serial, model.group_product());
  model.apply(via_engine, parallel::parallel_engine());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(serial[i], via_engine[i]);
}

TEST(MutationModelGrouped, OneBitGroupsEqualPerSite) {
  // A grouped model whose groups are all single sites must agree with the
  // per-site model built from the same 2x2 blocks.
  const double p01 = 0.2, p10 = 0.05;
  linalg::DenseMatrix block(2, 2);
  block(0, 0) = 1.0 - p01; block(0, 1) = p10;
  block(1, 0) = p01;       block(1, 1) = 1.0 - p10;
  const auto grouped = MutationModel::grouped({block, block});
  const auto per_site = MutationModel::per_site(
      {asymmetric_site(p01, p10), asymmetric_site(p01, p10)});
  for (seq_t i = 0; i < 4; ++i) {
    for (seq_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(grouped.entry(i, j), per_site.entry(i, j), 1e-15);
    }
  }
}

TEST(MutationModelGrouped, AccessorsEnforceKind) {
  const auto grouped = MutationModel::grouped({coupled_single_flip_group(2, 0.3)});
  EXPECT_THROW(grouped.site_factors(), precondition_error);
  EXPECT_THROW(grouped.error_rate(), precondition_error);
  EXPECT_THROW(grouped.walsh_eigenvalue(0), precondition_error);
  const auto uniform = MutationModel::uniform(3, 0.1);
  EXPECT_THROW(uniform.group_product(), precondition_error);
  EXPECT_NO_THROW(uniform.site_factors());
}

TEST(MutationModel, ApplyRejectsWrongSize) {
  const auto model = MutationModel::uniform(4, 0.1);
  std::vector<double> v(8);
  EXPECT_THROW(model.apply(v), precondition_error);
  EXPECT_THROW(model.apply(v, parallel::serial_engine()), precondition_error);
}

TEST(MutationModel, MassPreservation) {
  // Column stochasticity means Q preserves total probability mass.
  const auto model = MutationModel::uniform(9, 0.13);
  std::vector<double> v(512);
  Xoshiro256 rng(14);
  double mass = 0.0;
  for (double& x : v) {
    x = rng.uniform(0.0, 1.0);
    mass += x;
  }
  model.apply(v);
  double after = 0.0;
  for (double x : v) after += x;
  EXPECT_NEAR(after, mass, 1e-12 * mass);
}

}  // namespace
}  // namespace qs::core
