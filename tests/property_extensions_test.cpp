// Property-based sweeps over the extension modules: RNA alphabet, Krylov
// solvers, distributed decomposition, and the stochastic samplers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/fmmp.hpp"
#include "distributed/distributed_solver.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "lockstep_apply.hpp"
#include "reference/explicit_q.hpp"
#include "reference/krylov.hpp"
#include "rna/alphabet.hpp"
#include "rna/rna_model.hpp"
#include "stochastic/sampling.hpp"
#include "support/rng.hpp"

namespace qs {
namespace {

class RnaLengthProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RnaLengthProperty, EncodeIsABijection) {
  const unsigned bases = GetParam();
  Xoshiro256 rng(bases);
  std::set<seq_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    for (unsigned b = 0; b < bases; ++b) {
      s += rna::to_char(static_cast<rna::Nucleotide>(rng.uniform_index(4)));
    }
    const seq_t index = rna::encode(s);
    EXPECT_EQ(rna::decode(index, bases), s);
    seen.insert(index);
    EXPECT_LT(index, sequence_count(2 * bases));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST_P(RnaLengthProperty, BaseDistanceBounds) {
  // 0 <= d_base <= bases, and bit distance / 2 <= d_base <= bit distance.
  const unsigned bases = GetParam();
  Xoshiro256 rng(bases + 100);
  const seq_t n = sequence_count(2 * bases);
  for (int trial = 0; trial < 300; ++trial) {
    const seq_t a = rng.uniform_index(n);
    const seq_t b = rng.uniform_index(n);
    const unsigned d = rna::base_hamming_distance(a, b, bases);
    const unsigned bits = hamming_distance(a, b);
    EXPECT_LE(d, bases);
    EXPECT_LE(d, bits);
    EXPECT_GE(2 * d, bits);
    EXPECT_EQ(d, rna::base_hamming_distance(b, a, bases));
    EXPECT_EQ(rna::base_hamming_distance(a, a, bases), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RnaLengthProperty, ::testing::Values(1u, 3u, 6u),
                         [](const auto& info) {
                           return "bases" + std::to_string(info.param);
                         });

class RnaRateProperty : public ::testing::TestWithParam<double> {};

TEST_P(RnaRateProperty, JukesCantorSpectrumIsKnown) {
  // JC factor eigenvalues: 1 (once) and 1 - 4mu/3 (three times); the grouped
  // Q's spectrum is all products of per-base factor eigenvalues.
  const double mu = GetParam();
  const auto model = rna::uniform_rna_model(2, rna::jukes_cantor(mu));
  const auto q = core::build_q_dense(model);
  const auto eigen = linalg::jacobi_eigen(q);
  const double beta = 1.0 - 4.0 * mu / 3.0;
  // Expected eigenvalues: 1 (x1), beta (x6), beta^2 (x9).
  int ones = 0, betas = 0, beta2s = 0;
  for (double lambda : eigen.values) {
    if (std::abs(lambda - 1.0) < 1e-10) ++ones;
    else if (std::abs(lambda - beta) < 1e-10) ++betas;
    else if (std::abs(lambda - beta * beta) < 1e-10) ++beta2s;
  }
  EXPECT_EQ(ones, 1);
  EXPECT_EQ(betas, 6);
  EXPECT_EQ(beta2s, 9);
}

INSTANTIATE_TEST_SUITE_P(Rates, RnaRateProperty, ::testing::Values(0.01, 0.1, 0.3),
                         [](const auto& info) {
                           return "mu" + std::to_string(static_cast<int>(
                                             info.param * 100));
                         });

class KrylovSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KrylovSizeProperty, CgSolvesRandomSpdToTolerance) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n);
  linalg::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      a(j, i) = a(i, j);
    }
    a(i, i) += static_cast<double>(n);
  }
  std::vector<double> b(n), x(n, 0.0), r(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto result = linalg::conjugate_gradient(
      [&](std::span<const double> in, std::span<double> out) { a.multiply(in, out); },
      b, x);
  ASSERT_TRUE(result.converged);
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] -= b[i];
  EXPECT_LT(linalg::norm2(r) / linalg::norm2(b), 1e-10);
  // CG terminates within n iterations in exact arithmetic; allow slack.
  EXPECT_LE(result.iterations, static_cast<unsigned>(2 * n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KrylovSizeProperty,
                         ::testing::Values(std::size_t{2}, std::size_t{17},
                                           std::size_t{64}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

struct DistConfig {
  unsigned nu;
  unsigned ranks;
  double p;
};

class DistributedProperty : public ::testing::TestWithParam<DistConfig> {};

TEST_P(DistributedProperty, BlockedButterflyIsExact) {
  const auto [nu, ranks, p] = GetParam();
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu * ranks);
  const distributed::BlockLayout layout(nu, ranks);

  std::vector<double> x(sequence_count(nu));
  Xoshiro256 rng(nu + ranks);
  for (double& v : x) v = rng.uniform(0.0, 1.0);

  std::vector<double> expected(x.size());
  core::FmmpOperator(model, landscape).apply(x, expected);

  const auto product = distributed::lockstep_apply_w(model, landscape, ranks, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(product.y[i], expected[i]) << "i=" << i;
  }
  for (unsigned r = 0; r < ranks; ++r) {
    EXPECT_EQ(product.traffic[r].messages, layout.rank_bits()) << "rank " << r;
    EXPECT_EQ(product.traffic[r].doubles_moved, layout.rank_bits() * layout.block_size())
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DistributedProperty,
    ::testing::Values(DistConfig{7, 1, 0.3}, DistConfig{6, 2, 0.1},
                      DistConfig{8, 8, 0.01},
                      DistConfig{9, 16, 0.05}, DistConfig{11, 4, 0.2},
                      DistConfig{12, 32, 0.02}),
    [](const auto& info) {
      return "nu" + std::to_string(info.param.nu) + "_ranks" +
             std::to_string(info.param.ranks);
    });

class BinomialProperty : public ::testing::TestWithParam<double> {};

TEST_P(BinomialProperty, SamplesStayInRangeAndMatchMean) {
  const double p = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(p * 1e6) + 1);
  for (std::uint64_t n : {1ull, 7ull, 100ull, 5000ull}) {
    double sum = 0.0;
    const int reps = 4000;
    for (int r = 0; r < reps; ++r) {
      const auto k = stochastic::binomial_sample(rng, n, p);
      ASSERT_LE(k, n);
      sum += static_cast<double>(k);
    }
    const double mean = sum / reps;
    const double expected = static_cast<double>(n) * p;
    const double sigma = std::sqrt(std::max(expected * (1 - p), 1e-12) / reps);
    EXPECT_NEAR(mean, expected, 6.0 * sigma + 1e-9) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, BinomialProperty,
                         ::testing::Values(0.001, 0.2, 0.5, 0.8, 0.999),
                         [](const auto& info) {
                           return "p" + std::to_string(static_cast<int>(
                                            info.param * 1000));
                         });

}  // namespace
}  // namespace qs
