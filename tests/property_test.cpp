// Property-based (parameterised) sweeps over the model's invariants.
//
// Each suite sweeps a grid of (nu, p) or seeds and asserts a structural
// invariant from the paper: column stochasticity, the spectral law
// (1-2p)^k, Perron positivity, the error-class closure of Lemma 2, and the
// exactness of the fast products.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "linalg/vector_ops.hpp"
#include "reference/explicit_q.hpp"
#include "reference/smvp.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/rng.hpp"
#include "transforms/fwht.hpp"

namespace qs {
namespace {

struct ModelParam {
  unsigned nu;
  double p;
};

std::string model_param_name(const ::testing::TestParamInfo<ModelParam>& info) {
  return "nu" + std::to_string(info.param.nu) + "_p" +
         std::to_string(static_cast<int>(info.param.p * 1000));
}

class MutationMatrixProperty : public ::testing::TestWithParam<ModelParam> {};

TEST_P(MutationMatrixProperty, ColumnStochasticAndSymmetric) {
  const auto [nu, p] = GetParam();
  const auto q = core::build_q_dense(core::MutationModel::uniform(nu, p));
  EXPECT_LT(q.max_column_sum_deviation(), 1e-12);
  EXPECT_TRUE(q.is_symmetric(1e-15));
}

TEST_P(MutationMatrixProperty, EntriesArePositiveProbabilities) {
  const auto [nu, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  for (seq_t i = 0; i < model.dimension(); ++i) {
    for (seq_t j = 0; j < model.dimension(); ++j) {
      const double q = model.entry(i, j);
      ASSERT_GT(q, 0.0);
      ASSERT_LE(q, 1.0);
    }
  }
}

TEST_P(MutationMatrixProperty, FmmpMatchesDenseOnRandomVectors) {
  const auto [nu, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu * 1000 + 1);
  const core::FmmpOperator fmmp(model, landscape);
  const core::SmvpOperator smvp(model, landscape);
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  Xoshiro256 rng(nu);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> x(n), y1(n), y2(n);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    fmmp.apply(x, y1);
    smvp.apply(x, y2);
    ASSERT_LT(linalg::max_abs_diff(y1, y2), 1e-12);
  }
}

TEST_P(MutationMatrixProperty, SpectralLawHoldsThroughTheButterfly) {
  // Apply Q to the w-th Walsh function and read off the eigenvalue.
  const auto [nu, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  for (seq_t w : {seq_t{0}, seq_t{1}, seq_t{3}, n - 1}) {
    std::vector<double> v(n);
    for (seq_t i = 0; i < n; ++i) {
      v[i] = (hamming_weight(i & w) % 2 == 0) ? 1.0 : -1.0;  // Walsh function
    }
    const auto before = v;
    model.apply(v);
    const double lambda = std::pow(1.0 - 2.0 * p, hamming_weight(w));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(v[i], lambda * before[i], 1e-12)
          << "w=" << w << " i=" << i;
    }
  }
}

TEST_P(MutationMatrixProperty, PerronPositivityOfQuasispecies) {
  const auto [nu, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu * 31 + 7);
  const core::FmmpOperator op(model, landscape);
  const auto r = solvers::power_iteration(op, solvers::landscape_start(landscape));
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.eigenvalue, 0.0);
  for (double x : r.eigenvector) ASSERT_GT(x, 0.0);  // strictly positive
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MutationMatrixProperty,
    ::testing::Values(ModelParam{2, 0.01}, ModelParam{2, 0.25}, ModelParam{3, 0.1},
                      ModelParam{4, 0.05}, ModelParam{5, 0.02}, ModelParam{6, 0.15},
                      ModelParam{7, 0.4}, ModelParam{8, 0.01}, ModelParam{8, 0.49}),
    model_param_name);

class ErrorClassClosure : public ::testing::TestWithParam<ModelParam> {};

TEST_P(ErrorClassClosure, LemmaTwoWMapsClassVectorsToClassVectors) {
  // Lemma 2: for an error-class landscape, W maps error-class vectors to
  // error-class vectors.
  const auto [nu, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  Xoshiro256 rng(nu * 7 + static_cast<unsigned>(p * 100));
  std::vector<double> phi(nu + 1), reps(nu + 1);
  for (auto& v : phi) v = rng.uniform(0.5, 3.0);
  for (auto& v : reps) v = rng.uniform(0.0, 1.0);
  const auto landscape = core::ErrorClassLandscape::from_values(nu, phi).expand();

  const auto x = solvers::expand_representatives(nu, reps);
  const core::FmmpOperator op(model, landscape);
  std::vector<double> y(x.size());
  op.apply(x, y);

  // y must be constant on every error class.
  std::vector<double> class_rep(nu + 1, -1.0);
  for (seq_t i = 0; i < y.size(); ++i) {
    const unsigned k = hamming_weight(i);
    if (class_rep[k] < 0.0) {
      class_rep[k] = y[i];
    } else {
      ASSERT_NEAR(y[i], class_rep[k], 1e-12 * std::abs(class_rep[k]) + 1e-15);
    }
  }
}

TEST_P(ErrorClassClosure, ReducedIterationMatchesFullIteration) {
  // One reduced step Q_Gamma diag(phi) v must equal the class representatives
  // of one full step W (expand v).
  const auto [nu, p] = GetParam();
  Xoshiro256 rng(nu * 13 + 1);
  std::vector<double> phi(nu + 1), reps(nu + 1);
  for (auto& v : phi) v = rng.uniform(0.5, 3.0);
  for (auto& v : reps) v = rng.uniform(0.1, 1.0);

  const auto q_gamma = solvers::reduced_mutation_matrix(nu, p);
  std::vector<double> reduced_next(nu + 1, 0.0);
  for (unsigned d = 0; d <= nu; ++d) {
    for (unsigned k = 0; k <= nu; ++k) {
      reduced_next[d] += q_gamma(d, k) * phi[k] * reps[k];
    }
  }

  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::ErrorClassLandscape::from_values(nu, phi).expand();
  const auto x = solvers::expand_representatives(nu, reps);
  const core::FmmpOperator op(model, landscape);
  std::vector<double> y(x.size());
  op.apply(x, y);

  for (unsigned d = 0; d <= nu; ++d) {
    const seq_t rep_index = (seq_t{1} << d) - 1;
    ASSERT_NEAR(y[rep_index], reduced_next[d], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ErrorClassClosure,
                         ::testing::Values(ModelParam{4, 0.05}, ModelParam{6, 0.02},
                                           ModelParam{8, 0.1}, ModelParam{10, 0.3}),
                         model_param_name);

class FwhtProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FwhtProperty, InvolutionAtEveryLength) {
  const unsigned nu = GetParam();
  const std::size_t n = std::size_t{1} << nu;
  std::vector<double> v(n), orig(n);
  Xoshiro256 rng(nu + 99);
  for (std::size_t i = 0; i < n; ++i) v[i] = orig[i] = rng.uniform(-1.0, 1.0);
  transforms::fwht_normalized(v);
  transforms::fwht_normalized(v);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(v[i], orig[i], 1e-12);
}

TEST_P(FwhtProperty, DiagonalisesQ) {
  // fwht(Q v) must equal Lambda fwht(v) entrywise.
  const unsigned nu = GetParam();
  const double p = 0.07;
  const auto model = core::MutationModel::uniform(nu, p);
  const std::size_t n = std::size_t{1} << nu;
  std::vector<double> v(n);
  Xoshiro256 rng(nu + 5);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);

  std::vector<double> qv = v;
  model.apply(qv);
  transforms::fwht(qv);

  transforms::fwht(v);
  for (seq_t w = 0; w < n; ++w) {
    const double lambda = std::pow(1.0 - 2.0 * p, hamming_weight(w));
    ASSERT_NEAR(qv[w], lambda * v[w], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FwhtProperty, ::testing::Values(1u, 2u, 4u, 7u, 10u),
                         [](const auto& info) {
                           return "nu" + std::to_string(info.param);
                         });

class LandscapeSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LandscapeSeedProperty, SolverInvariantsAcrossRandomLandscapes) {
  const std::uint64_t seed = GetParam();
  const unsigned nu = 8;
  const double p = 0.02;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, seed);
  const core::FmmpOperator op(model, landscape);
  solvers::PowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);
  const auto r = solvers::power_iteration(op, solvers::landscape_start(landscape), opts);
  ASSERT_TRUE(r.converged);

  // lambda_0 bounded by the paper's norm bounds (Section 3).
  EXPECT_LE(r.eigenvalue, landscape.max_fitness() + 1e-12);
  EXPECT_GE(r.eigenvalue,
            std::pow(1.0 - 2.0 * p, nu) * landscape.min_fitness() - 1e-12);
  // Concentrations form a distribution.
  EXPECT_NEAR(linalg::norm1(std::span<const double>(r.eigenvector)), 1.0, 1e-12);
  // Residual honoured.
  EXPECT_LE(r.residual, opts.tolerance);
  // The master sequence (fittest) carries the single largest concentration.
  seq_t argmax = 0;
  for (seq_t i = 1; i < r.eigenvector.size(); ++i) {
    if (r.eigenvector[i] > r.eigenvector[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LandscapeSeedProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace qs
