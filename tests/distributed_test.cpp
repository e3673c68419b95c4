// Unit tests for the simulated distributed-memory decomposition.
#include <gtest/gtest.h>

#include <string>

#include "core/fmmp.hpp"
#include "core/site_process.hpp"
#include "core/spectral.hpp"
#include "distributed/block_layout.hpp"
#include "distributed/distributed_solver.hpp"
#include "linalg/vector_ops.hpp"
#include "reference/fmmp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::distributed {
namespace {

TEST(BlockLayout, BasicGeometry) {
  const BlockLayout layout(10, 4);
  EXPECT_EQ(layout.block_size(), 256u);
  EXPECT_EQ(layout.rank_bits(), 2u);
  EXPECT_EQ(layout.block_begin(0), 0u);
  EXPECT_EQ(layout.block_begin(3), 768u);
  EXPECT_EQ(layout.owner(0), 0u);
  EXPECT_EQ(layout.owner(255), 0u);
  EXPECT_EQ(layout.owner(256), 1u);
  EXPECT_EQ(layout.owner(1023), 3u);
}

TEST(BlockLayout, LevelLocality) {
  const BlockLayout layout(10, 4);  // block = 256 = 2^8
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_TRUE(layout.level_is_local(std::size_t{1} << k)) << k;
  }
  EXPECT_FALSE(layout.level_is_local(256));
  EXPECT_FALSE(layout.level_is_local(512));
}

TEST(BlockLayout, PartnerPattern) {
  const BlockLayout layout(10, 4);
  // stride 256 pairs ranks differing in bit 0; stride 512 in bit 1.
  EXPECT_EQ(layout.partner(0, 256), 1u);
  EXPECT_EQ(layout.partner(1, 256), 0u);
  EXPECT_EQ(layout.partner(2, 256), 3u);
  EXPECT_EQ(layout.partner(0, 512), 2u);
  EXPECT_EQ(layout.partner(3, 512), 1u);
  EXPECT_THROW(layout.partner(0, 128), precondition_error);  // local level
}

TEST(BlockLayout, RejectsBadConfigurations) {
  EXPECT_THROW(BlockLayout(4, 3), precondition_error);   // not a power of two
  EXPECT_THROW(BlockLayout(4, 16), precondition_error);  // one entry per rank
  EXPECT_NO_THROW(BlockLayout(4, 8));                    // two entries per rank
}

TEST(DistributedVector, ScatterGatherRoundTrip) {
  const BlockLayout layout(8, 4);
  std::vector<double> global(256);
  Xoshiro256 rng(1);
  for (double& v : global) v = rng.uniform(-1.0, 1.0);
  const auto dv = DistributedVector::scatter(layout, global);
  const auto back = dv.gather();
  EXPECT_EQ(back, global);
}

class DistributedApply : public ::testing::TestWithParam<unsigned> {};

TEST_P(DistributedApply, MatchesSerialFmmpBitExactly) {
  // The distributed product performs the same arithmetic as the serial
  // butterfly, so blocks must agree bit for bit across any rank count.
  const unsigned ranks = GetParam();
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const BlockLayout layout(nu, ranks);

  std::vector<double> x(1024);
  Xoshiro256 rng(2);
  for (double& v : x) v = rng.uniform(0.0, 1.0);

  // Serial reference (Algorithm 1).
  std::vector<double> expected(1024);
  reference::ReferenceFmmp(model, landscape).apply(x, expected);

  auto dv = DistributedVector::scatter(layout, x);
  TrafficStats stats;
  distributed_apply_w(model, landscape, dv, stats);
  const auto result = dv.gather();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(result[i], expected[i]) << "i=" << i << " ranks=" << ranks;
  }
}

TEST_P(DistributedApply, TrafficMatchesTheSchedule) {
  // Cross-rank levels = log2(ranks); per level there are ranks/2 disjoint
  // pairs and each pair exchanges two messages (one per direction).
  const unsigned ranks = GetParam();
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const BlockLayout layout(nu, ranks);
  auto dv = DistributedVector::scatter(
      layout, std::vector<double>(1024, 1.0 / 1024.0));
  TrafficStats stats;
  distributed_apply_w(model, landscape, dv, stats);

  const std::size_t cross_levels = layout.rank_bits();
  const std::size_t expected_messages = cross_levels * (ranks / 2) * 2;
  EXPECT_EQ(stats.messages, expected_messages);
  EXPECT_EQ(stats.doubles_moved, expected_messages * layout.block_size());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedApply,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(DistributedPower, MatchesSerialSolver) {
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 11);

  const core::FmmpOperator op(model, landscape);
  solvers::PowerOptions serial_opts;
  serial_opts.shift = core::conservative_shift(model, landscape);
  const auto serial =
      solvers::power_iteration(op, solvers::landscape_start(landscape), serial_opts);
  ASSERT_TRUE(serial.converged);

  DistributedPowerOptions opts;
  opts.shift = serial_opts.shift;
  const auto dist = distributed_power_iteration(model, landscape, 8, opts);
  ASSERT_TRUE(dist.converged);
  EXPECT_NEAR(dist.eigenvalue, serial.eigenvalue, 1e-12);
  EXPECT_LT(linalg::max_abs_diff(dist.eigenvector, serial.eigenvector), 1e-12);
  EXPECT_EQ(dist.iterations, serial.iterations);  // identical arithmetic
  EXPECT_GT(dist.traffic.messages, 0u);
  EXPECT_GT(dist.traffic.allreduce_calls, 0u);
}

TEST(DistributedPower, RankCountDoesNotChangeTheAnswer) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.04);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 13);

  const auto one = distributed_power_iteration(model, landscape, 1);
  const auto four = distributed_power_iteration(model, landscape, 4);
  const auto sixteen = distributed_power_iteration(model, landscape, 16);
  ASSERT_TRUE(one.converged && four.converged && sixteen.converged);
  EXPECT_NEAR(one.eigenvalue, four.eigenvalue, 1e-13);
  EXPECT_NEAR(one.eigenvalue, sixteen.eigenvalue, 1e-13);
  EXPECT_LT(linalg::max_abs_diff(one.eigenvector, four.eigenvector), 1e-13);
  EXPECT_LT(linalg::max_abs_diff(one.eigenvector, sixteen.eigenvector), 1e-13);
  // Single-rank runs ship nothing.
  EXPECT_EQ(one.traffic.messages, 0u);
  EXPECT_GT(sixteen.traffic.messages, four.traffic.messages);
}

TEST(DistributedApply, RejectsGroupedModelsWithStructuredError) {
  const auto grouped =
      core::MutationModel::grouped({core::coupled_single_flip_group(2, 0.2),
                                    core::coupled_single_flip_group(2, 0.2)});
  const auto landscape = core::Landscape::flat(4, 1.0);
  const BlockLayout layout(4, 2);
  auto dv = DistributedVector::scatter(layout, std::vector<double>(16, 1.0 / 16));
  TrafficStats stats;
  // The old contract was a hard `require` abort with a generic message; the
  // distributed layer now raises a structured error naming the kind and
  // mapping onto SolverFailure::unsupported — while still deriving from
  // precondition_error so pre-existing catch sites keep working.
  try {
    distributed_apply_w(grouped, landscape, dv, stats);
    FAIL() << "grouped model must be rejected";
  } catch (const UnsupportedModelError& e) {
    EXPECT_EQ(e.kind(), core::MutationKind::grouped);
    EXPECT_EQ(e.failure(), solvers::SolverFailure::unsupported);
    EXPECT_NE(std::string(e.what()).find("grouped"), std::string::npos);
  }
  EXPECT_THROW(distributed_apply_w(grouped, landscape, dv, stats),
               precondition_error);  // the compat contract
}

TEST(DistributedPower, RejectsGroupedModelsWithStructuredError) {
  const auto grouped =
      core::MutationModel::grouped({core::coupled_single_flip_group(2, 0.2),
                                    core::coupled_single_flip_group(2, 0.2)});
  const auto landscape = core::Landscape::flat(4, 1.0);
  try {
    distributed_power_iteration(grouped, landscape, 2);
    FAIL() << "grouped model must be rejected";
  } catch (const UnsupportedModelError& e) {
    EXPECT_EQ(e.kind(), core::MutationKind::grouped);
    EXPECT_EQ(e.failure(), solvers::SolverFailure::unsupported);
  }
}

}  // namespace
}  // namespace qs::distributed
