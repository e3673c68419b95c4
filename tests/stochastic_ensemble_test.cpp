// Tests for the panel-batched replica-ensemble engine: RNG stream jumping,
// batched-vs-sequential equivalence, the cross-backend bit-identity
// contract, and convergence to the deterministic quasispecies.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "stochastic/ensemble.hpp"
#include "stochastic/wright_fisher.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::stochastic {
namespace {

TEST(JumpedStreams, DeterministicDistinctAndJumpConsistent) {
  // Same (seed, index) -> same stream.
  auto a = jumped_stream(123, 3);
  auto b = jumped_stream(123, 3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());

  // Different indices -> different streams (2^128 draws apart).
  auto s0 = jumped_stream(123, 0);
  auto s1 = jumped_stream(123, 1);
  auto s2 = jumped_stream(123, 2);
  EXPECT_NE(s0(), s1());
  EXPECT_NE(s1(), s2());

  // Index k is exactly k applications of jump() to the root.
  Xoshiro256 root(123);
  root.jump();
  root.jump();
  auto direct = jumped_stream(123, 2);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(root(), direct());
}

TEST(ReplicaEnsemble, StepConservesEveryPopulation) {
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;
  options.replicas = 5;
  options.population_size = 1000;
  ReplicaEnsemble ensemble(model, landscape, options);
  for (int g = 0; g < 10; ++g) {
    ensemble.step();
    for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
      ASSERT_EQ(ensemble.population(r).size(), 1000u) << "g=" << g << " r=" << r;
    }
  }
}

TEST(ReplicaEnsemble, ExpectedMatchesWrightFisherPerReplica) {
  // The panel-batched expected-offspring of each replica must agree with
  // the WrightFisher class's own single-population computation.
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;
  options.replicas = 5;  // deliberately not a multiple of the panel width
  options.population_size = 3000;
  options.start_uniform = true;
  ReplicaEnsemble ensemble(model, landscape, options);
  ensemble.compute_expected(true);

  WrightFisher wf(model, landscape, 1);
  for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
    const auto reference = wf.expected_offspring(ensemble.population(r));
    const auto batched = ensemble.expected(r);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_NEAR(batched[i], reference[i], 1e-12) << "r=" << r << " i=" << i;
    }
  }
}

TEST(ReplicaEnsemble, BatchedAndSequentialExpectedAgree) {
  // Panel and single-vector products run the same span kernels, so every
  // panel column is the single-vector product bit for bit; both normalisers
  // sum in the same kNormaliserBlock blocks in block order, so the whole
  // expected distribution is bitwise equal — with one block (nu <= 12) and
  // with several (nu = 13, 14).
  for (const unsigned nu : {8u, 12u, 13u, 14u}) {
    SCOPED_TRACE(::testing::Message() << "nu=" << nu);
    const auto model = core::MutationModel::uniform(nu, 0.015);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 11);
    EnsembleOptions options;
    options.replicas = 11;
    options.population_size = 2000;
    options.start_uniform = true;
    ReplicaEnsemble ensemble(model, landscape, options);

    ensemble.compute_expected(false);
    std::vector<std::vector<double>> sequential;
    for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
      const auto e = ensemble.expected(r);
      sequential.emplace_back(e.begin(), e.end());
    }
    ensemble.compute_expected(true);
    for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
      const auto batched = ensemble.expected(r);
      for (std::size_t i = 0; i < batched.size(); ++i) {
        ASSERT_EQ(batched[i], sequential[r][i]) << "r=" << r << " i=" << i;
      }
    }
  }
}

std::vector<std::vector<std::uint64_t>> run_counts(parallel::TestEngine backend,
                                                   std::uint64_t generations) {
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;
  options.replicas = 5;  // final panel chunk is narrower than the width
  options.population_size = 2000;
  options.seed = 42;
  const auto engine = parallel::make_test_engine(backend);
  ReplicaEnsemble ensemble(model, landscape, options, engine.get());
  for (std::uint64_t g = 0; g < generations; ++g) ensemble.step();
  std::vector<std::vector<std::uint64_t>> counts;
  for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
    const auto c = ensemble.population(r).counts();
    counts.emplace_back(c.begin(), c.end());
  }
  return counts;
}

TEST(ReplicaEnsemble, TrajectoryIsBitIdenticalAcrossBackends) {
  // The reproducibility contract: per-replica RNG streams, elementwise
  // panel work, and fixed-order normaliser reductions make the whole
  // resampled trajectory independent of the backend and thread count.
  const auto serial = run_counts(parallel::TestEngine::serial, 15);
  const auto pool3 = run_counts(parallel::TestEngine::pool3, 15);
  const auto pool = run_counts(parallel::TestEngine::pool, 15);
  ASSERT_EQ(serial.size(), pool3.size());
  ASSERT_EQ(serial.size(), pool.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r], pool3[r]) << "replica " << r;
    ASSERT_EQ(serial[r], pool[r]) << "replica " << r;
  }
}

TEST(ReplicaEnsemble, MoranEnsembleConservesAndIsBitIdentical) {
  const unsigned nu = 5;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;
  options.replicas = 4;
  options.population_size = 300;
  options.process = EnsembleProcess::moran;
  options.seed = 7;

  auto run = [&](parallel::TestEngine backend) {
    const auto engine = parallel::make_test_engine(backend);
    ReplicaEnsemble ensemble(model, landscape, options, engine.get());
    for (int g = 0; g < 8; ++g) ensemble.step();
    std::vector<std::vector<std::uint64_t>> counts;
    for (std::size_t r = 0; r < ensemble.replicas(); ++r) {
      EXPECT_EQ(ensemble.population(r).size(), 300u);
      const auto c = ensemble.population(r).counts();
      counts.emplace_back(c.begin(), c.end());
    }
    return counts;
  };
  const auto serial = run(parallel::TestEngine::serial);
  const auto pool = run(parallel::TestEngine::pool);
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r], pool[r]) << "replica " << r;
  }
}

TEST(ReplicaEnsemble, MeanConvergesToDeterministicEigenvectorAsNGrows) {
  // Finite-N ensembles approach the infinite-population quasispecies: the
  // ensemble mean at large N_pop matches the dominant eigenvector's class
  // sums, and the cross-replica smearing width shrinks with N_pop.
  const unsigned nu = 8;
  const double p = 0.02;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);

  const core::FmmpOperator op(model, landscape);
  const auto eigen =
      solvers::power_iteration(op, solvers::landscape_start(landscape));
  ASSERT_TRUE(eigen.converged);
  const auto det_classes = analysis::class_concentrations(nu, eigen.eigenvector);

  auto smearing = [&](std::uint64_t n_pop) {
    EnsembleOptions options;
    options.replicas = 8;
    options.population_size = n_pop;
    options.seed = 5;
    ReplicaEnsemble ensemble(model, landscape, options);
    ensemble.run(300, 150);
    return ensemble.statistics();
  };

  const auto small = smearing(500);
  const auto large = smearing(50000);

  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_NEAR(large.class_mean[k], det_classes[k], 0.02) << "k=" << k;
  }
  // sigma([Gamma_0]) ~ 1/sqrt(N_pop): a 100x population gap leaves a wide
  // margin over the chi-distribution noise of an 8-replica estimate.
  EXPECT_LT(large.master_std, small.master_std);
  EXPECT_GT(small.master_std, 0.0);
}

TEST(ReplicaEnsemble, StatisticsSingleReplicaHasZeroVariance) {
  const unsigned nu = 5;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;
  options.replicas = 1;
  options.population_size = 500;
  ReplicaEnsemble ensemble(model, landscape, options);
  ensemble.run(50, 25);
  const auto stats = ensemble.statistics();
  EXPECT_EQ(stats.replicas, 1u);
  EXPECT_EQ(stats.master_std, 0.0);
  for (double v : stats.variance) EXPECT_EQ(v, 0.0);
  const auto avg = ensemble.replica_average(0);
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_EQ(stats.mean[i], avg[i]);
  }
  double mass = 0.0;
  for (double v : stats.mean) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(ReplicaEnsemble, RejectsInvalidOptions) {
  const unsigned nu = 4;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  EnsembleOptions options;

  options.replicas = 0;
  EXPECT_THROW(ReplicaEnsemble(model, landscape, options), precondition_error);
  options.replicas = 2;
  options.panel_width = 0;
  EXPECT_THROW(ReplicaEnsemble(model, landscape, options), precondition_error);
  options.panel_width = kMaxPanelWidth + 1;
  EXPECT_THROW(ReplicaEnsemble(model, landscape, options), precondition_error);
  options.panel_width = 8;
  options.population_size = 1;
  EXPECT_THROW(ReplicaEnsemble(model, landscape, options), precondition_error);

  options.population_size = 100;
  ReplicaEnsemble ok(model, landscape, options);
  EXPECT_THROW(ok.statistics(), precondition_error);   // before run()
  EXPECT_THROW(ok.population(2), precondition_error);  // out of range
}

}  // namespace
}  // namespace qs::stochastic
