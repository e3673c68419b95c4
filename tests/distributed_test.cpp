// Unit tests for the distributed-memory decomposition: the block layout,
// the rank product on lockstep ranks, and the distributed power iteration.
#include <gtest/gtest.h>

#include <span>
#include <string>

#include "core/fmmp.hpp"
#include "core/site_process.hpp"
#include "core/spectral.hpp"
#include "distributed/block_layout.hpp"
#include "distributed/distributed_solver.hpp"
#include "linalg/vector_ops.hpp"
#include "lockstep_apply.hpp"
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

class DistributedApply : public ::testing::TestWithParam<unsigned> {};

TEST_P(DistributedApply, MatchesSerialFmmpBitExactly) {
  // The rank product performs the same arithmetic as the serial banded
  // product, so the gathered blocks must agree bit for bit across any rank
  // count.
  const unsigned ranks = GetParam();
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);

  std::vector<double> x(1024);
  Xoshiro256 rng(2);
  for (double& v : x) v = rng.uniform(0.0, 1.0);

  std::vector<double> expected(1024);
  core::FmmpOperator(model, landscape).apply(x, expected);

  const auto result = lockstep_apply_w(model, landscape, ranks, x).y;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(result[i], expected[i]) << "i=" << i << " ranks=" << ranks;
  }
}

TEST_P(DistributedApply, TrafficMatchesTheSchedule) {
  // Cross-rank levels = log2(ranks); per level every rank sends its block
  // to its partner once, as its own transport counters record.
  const unsigned ranks = GetParam();
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const BlockLayout layout(nu, ranks);
  const auto product = lockstep_apply_w(model, landscape, ranks,
                                        std::vector<double>(1024, 1.0 / 1024.0));

  const std::size_t cross_levels = layout.rank_bits();
  for (unsigned r = 0; r < ranks; ++r) {
    EXPECT_EQ(product.traffic[r].messages, cross_levels) << "rank " << r;
    EXPECT_EQ(product.traffic[r].doubles_moved, cross_levels * layout.block_size())
        << "rank " << r;
    EXPECT_EQ(product.traffic[r].allreduce_calls, 0u) << "rank " << r;
  }
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

TEST(DistributedApply, RejectsBlocksThatDoNotMatchTheLayout) {
  // Every rank must hand over exactly one layout block of x, y, scratch and
  // fitness, and one factor per site; anything else is refused up front.
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::flat(nu, 1.0);
  const BlockLayout layout(nu, 2);
  const std::size_t block = layout.block_size();
  const std::span<const transforms::Factor2> sites = model.site_factors();
  LockstepGroup long_y(2);
  EXPECT_THROW(long_y.run([&](Exchange& exchange) {
    std::vector<double> x(block, 1.0), y(block + 1), recv(block);
    distributed_apply_w(exchange, layout, sites,
                        landscape.values().first(block), {}, x, y, recv);
  }), precondition_error);
  LockstepGroup missing_site(2);
  EXPECT_THROW(missing_site.run([&](Exchange& exchange) {
    std::vector<double> x(block, 1.0), y(block), recv(block);
    distributed_apply_w(exchange, layout, sites.subspan(1),
                        landscape.values().first(block), {}, x, y, recv);
  }), precondition_error);
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
