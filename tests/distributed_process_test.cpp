// Multi-process transport tests: run_multiprocess / SocketExchange.
//
// These tests fork real child processes (one per non-zero rank) connected by
// AF_UNIX socketpairs, so they exercise the actual wire path: header framing,
// segmented pipelining, binomial gather/scatter, and the death-of-a-peer
// error paths.  The calling process is rank 0, so all gtest assertions below
// run in the parent; child ranks communicate their health only through the
// transport itself (a child that misbehaves surfaces as ExchangeError here).
//
// NOTE: keep this file out of the TSan suite — fork() from an instrumented
// multi-threaded runner is not a supported TSan configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/exchange.hpp"
#include "distributed/reduction.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/rng.hpp"

namespace qs::distributed {
namespace {

TEST(MultiProcess, SendrecvSwapsBlocksOverTheWire) {
  run_multiprocess(2, [](Exchange& ex) {
    std::vector<double> mine(1000, static_cast<double>(ex.rank()) + 0.5);
    std::vector<double> theirs(1000, -1.0);
    ex.sendrecv(ex.rank() ^ 1u, mine, theirs, 7);
    const double expected = static_cast<double>(ex.rank() ^ 1u) + 0.5;
    for (double v : theirs) {
      if (v != expected) throw ExchangeError("wrong payload received");
    }
    if (ex.rank() == 0) {
      EXPECT_EQ(ex.stats().messages, 1u);
      EXPECT_EQ(ex.stats().doubles_moved, 1000u);
    }
  });
}

TEST(MultiProcess, OverlappedSendrecvDeliversEverySegmentInOrder) {
  // A block larger than one pipeline segment, so the overlapped path
  // actually splits it; the callback must cover [0, n) exactly, ascending.
  run_multiprocess(2, [](Exchange& ex) {
    const std::size_t n = 3 * 4096 + 123;  // 3 full segments plus a tail
    std::vector<double> mine(n, static_cast<double>(ex.rank()));
    std::vector<double> theirs(n, -1.0);
    std::size_t covered = 0;
    ex.sendrecv_overlapped(ex.rank() ^ 1u, mine, theirs, 9,
                           [&](std::size_t begin, std::size_t end) {
                             if (begin != covered || end <= begin) {
                               throw ExchangeError("segment order violated");
                             }
                             covered = end;
                           });
    if (covered != n) throw ExchangeError("segments did not cover the block");
    const double expected = static_cast<double>(ex.rank() ^ 1u);
    for (double v : theirs) {
      if (v != expected) throw ExchangeError("wrong payload received");
    }
    if (ex.rank() == 0) {
      // The pipelined path attributes SOME of the wall time to overlap
      // (combine ran while a later segment was in flight).
      EXPECT_GT(ex.stats().exchange_ns + ex.stats().overlap_ns, 0u);
    }
  });
}

TEST(MultiProcess, AllreduceMatchesTheTreeOnEveryRank) {
  const std::vector<double> partials = {0.1, -0.7, 1.3, 0.04};
  const double expected = tree_sum(partials);
  run_multiprocess(4, [&](Exchange& ex) {
    const double got = ex.allreduce_sum(partials[ex.rank()], 2);
    // Exact-bits check on every rank; a child that disagrees aborts the run.
    if (got != expected) throw ExchangeError("allreduce bits diverged");
    if (ex.rank() == 0) {
      EXPECT_EQ(got, expected);
    }
  });
}

TEST(MultiProcess, GatherScatterRoundTripAcrossFourProcesses) {
  const std::size_t block = 300;
  run_multiprocess(4, [&](Exchange& ex) {
    std::vector<double> image;
    if (ex.rank() == 0) {
      image.resize(4 * block);
      Xoshiro256 rng(5);
      for (double& v : image) v = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> mine(block, 0.0);
    ex.scatter_from_root(mine, image, 1);
    std::vector<double> back(ex.rank() == 0 ? 4 * block : 0, 0.0);
    ex.gather_to_root(mine, back, 2);
    if (ex.rank() == 0) {
      EXPECT_EQ(back, image);
    }
  });
}

TEST(MultiProcess, TagMismatchIsAStructuredErrorNotCorruption) {
  EXPECT_THROW(run_multiprocess(
                   2,
                   [](Exchange& ex) {
                     std::vector<double> buf(16, 1.0);
                     std::vector<double> got(16);
                     // The two ranks disagree on the tag: the header check
                     // must fail on both sides.
                     ex.sendrecv(ex.rank() ^ 1u, buf, got,
                                 ex.rank() == 0 ? 3 : 4);
                   },
                   5000),
               ExchangeError);
}

TEST(MultiProcess, ARankDyingMidExchangeSurfacesPromptlyWithoutAHang) {
  // Rank 1 dies (hard _exit, no unwinding) before its half of the swap;
  // rank 0's poll-gated read must fail fast — EOF on the socket, not a
  // 30-second timeout — and the child must be reaped.
  EXPECT_THROW(run_multiprocess(
                   2,
                   [](Exchange& ex) {
                     if (ex.rank() == 1) _exit(7);
                     std::vector<double> buf(4096, 1.0);
                     std::vector<double> got(4096);
                     ex.sendrecv(1, buf, got, 1);
                   },
                   5000),
               ExchangeError);
}

// ---------------------------------------------------------------------------
// Full solves over the process transport.
// ---------------------------------------------------------------------------

TEST(MultiProcessSolve, BitIdenticalToTheLockstepTransport) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 19);
  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);

  opts.exchange = ExchangeKind::lockstep;
  const auto lockstep = distributed_power_iteration(model, landscape, 4, opts);
  ASSERT_TRUE(lockstep.converged);

  opts.exchange = ExchangeKind::process;
  const auto process = distributed_power_iteration(model, landscape, 4, opts);
  ASSERT_TRUE(process.converged);

  EXPECT_EQ(process.eigenvalue, lockstep.eigenvalue);  // exact bits
  EXPECT_EQ(process.iterations, lockstep.iterations);
  EXPECT_EQ(process.residual, lockstep.residual);
  ASSERT_EQ(process.eigenvector.size(), lockstep.eigenvector.size());
  for (std::size_t i = 0; i < process.eigenvector.size(); ++i) {
    ASSERT_EQ(process.eigenvector[i], lockstep.eigenvector[i]) << "i=" << i;
  }
  EXPECT_EQ(process.rank_count, 4u);
  EXPECT_GT(process.traffic.messages, 0u);
  EXPECT_GT(process.traffic.bytes_moved(), 0u);
}

TEST(MultiProcessSolve, BlocksEntryNeverMaterialisesTheFullLandscape) {
  // The blocks entry point hands each rank only its own fitness block; with
  // gather_eigenvector=false nothing of size 2^nu is ever allocated in any
  // single rank (this is the capacity configuration the bench scales up).
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 4.0, 1.0, 43);

  DistributedPowerOptions opts;
  opts.exchange = ExchangeKind::process;
  opts.gather_eigenvector = false;
  const auto dist = distributed_power_iteration_blocks(
      model, 4,
      [&landscape](const BlockLayout& layout, unsigned rank) {
        const auto v = landscape.values().subspan(layout.block_begin(rank),
                                                  layout.block_size());
        return std::vector<double>(v.begin(), v.end());
      },
      opts);
  ASSERT_TRUE(dist.converged);
  EXPECT_EQ(dist.eigenvector.size(), (std::size_t{1} << nu) / 4);

  // Same spectrum as the lockstep full-gather run, to rounding.
  const auto reference = distributed_power_iteration(model, landscape, 4);
  EXPECT_EQ(dist.eigenvalue, reference.eigenvalue);
  EXPECT_EQ(dist.iterations, reference.iterations);
}

TEST(MultiProcessSolve, ARankDyingMidSolveIsAStructuredError) {
  // Rank 2's fitness callback hard-exits while the others are already
  // entering the first collective: the solve must fail with ExchangeError
  // (a named transport failure), not hang or return garbage.
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 47);
  DistributedPowerOptions opts;
  opts.exchange = ExchangeKind::process;
  opts.exchange_timeout_ms = 5000;
  EXPECT_THROW(
      (void)distributed_power_iteration_blocks(
          model, 4,
          [&landscape](const BlockLayout& layout, unsigned rank) {
            if (rank == 2) _exit(7);
            const auto v = landscape.values().subspan(layout.block_begin(rank),
                                                      layout.block_size());
            return std::vector<double>(v.begin(), v.end());
          },
          opts),
      ExchangeError);
}

TEST(MultiProcessSolve, CooperativeCancellationCrossesTheProcessBoundary) {
  // The stop flag lives in rank 0 (the parent): the control-word allreduce
  // must carry the vote to the children so every process agrees to stop at
  // the same iteration and the group shuts down cleanly.
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 53);

  std::atomic<bool> stop{false};
  std::atomic<unsigned> checks{0};
  DistributedPowerOptions opts;
  opts.exchange = ExchangeKind::process;
  opts.tolerance = 0.0;
  opts.stall_window = 0;
  opts.max_iterations = 200;
  opts.on_residual = [&](unsigned, double) {
    if (++checks >= 2) stop.store(true);
  };
  opts.should_stop = [&stop] { return stop.load(); };

  const auto dist = distributed_power_iteration(model, landscape, 4, opts);
  EXPECT_EQ(dist.failure, solvers::SolverFailure::cancelled);
  EXPECT_FALSE(dist.converged);
  EXPECT_LT(dist.iterations, 200u);
  EXPECT_GT(dist.traffic.messages, 0u);
}

// ---------------------------------------------------------------------------
// The default facade is the serial counterpart of a distributed solve: no
// tree_engine(), no iteration-0 checkpoint, no custom start.  Both sides
// start from landscape_start and take every sum from the same tree-ordered
// SvKernels entries, so the bits agree by construction.
// ---------------------------------------------------------------------------

using ResidualStream = std::vector<std::pair<unsigned, double>>;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(same_bits(expected[i], actual[i]))
        << what << " element " << i << ": " << expected[i] << " vs " << actual[i];
  }
}

void expect_same_stream(const ResidualStream& expected,
                        const ResidualStream& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].first, actual[i].first) << what << " check " << i;
    ASSERT_TRUE(same_bits(expected[i].second, actual[i].second))
        << what << " residual at iteration " << expected[i].first;
  }
}

core::MutationModel facade_case_model(bool per_site, unsigned nu) {
  if (!per_site) return core::MutationModel::uniform(nu, 0.02);
  std::vector<transforms::Factor2> sites;
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(
        transforms::Factor2::uniform(0.008 + 0.003 * static_cast<double>(k)));
  }
  return core::MutationModel::per_site(std::move(sites));
}

TEST(DefaultFacadeEquivalence, DistributedSolvesAreBitIdenticalToPlainSolve) {
  const unsigned nu = 10;
  for (bool per_site : {false, true}) {
    const auto model = facade_case_model(per_site, nu);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 23);

    ResidualStream facade_stream;
    solvers::SolveOptions options;
    options.on_residual = [&facade_stream](unsigned it, double r) {
      facade_stream.emplace_back(it, r);
    };
    const auto facade = solvers::solve(model, landscape, options);
    ASSERT_TRUE(facade.converged);

    for (ExchangeKind kind : {ExchangeKind::lockstep, ExchangeKind::process}) {
      for (unsigned ranks : {1u, 2u, 4u, 8u}) {
        const std::string what = std::string(per_site ? "per_site" : "uniform") +
                                 " " + to_string(kind) + " R=" +
                                 std::to_string(ranks);
        ResidualStream stream;
        DistributedPowerOptions opts;
        opts.exchange = kind;
        opts.shift = core::conservative_shift(model, landscape);
        opts.on_residual = [&stream](unsigned it, double r) {
          stream.emplace_back(it, r);
        };
        const auto dist = distributed_power_iteration(model, landscape, ranks, opts);
        ASSERT_TRUE(dist.converged) << what;
        EXPECT_TRUE(same_bits(facade.eigenvalue, dist.eigenvalue)) << what;
        EXPECT_EQ(facade.iterations, dist.iterations) << what;
        EXPECT_TRUE(same_bits(facade.residual, dist.residual)) << what;
        expect_same_stream(facade_stream, stream, what);
        expect_same_bits(facade.concentrations, dist.eigenvector, what);

        // Capacity mode: rank 0's block of the never-gathered eigenvector
        // is the same bits as the gathered one.
        opts.gather_eigenvector = false;
        opts.on_residual = nullptr;
        const auto capacity =
            distributed_power_iteration(model, landscape, ranks, opts);
        const std::vector<double> head(
            facade.concentrations.begin(),
            facade.concentrations.begin() +
                static_cast<std::ptrdiff_t>(capacity.eigenvector.size()));
        expect_same_bits(head, capacity.eigenvector, what + " capacity");
      }
    }
  }
}

TEST(DefaultFacadeEquivalence, EveryCapacityBlockEqualsTheGatheredVector) {
  // Every rank's block, not just rank 0's: driven through the rank body on
  // a lockstep group so each block is visible to the test.
  const unsigned nu = 9;
  const unsigned ranks = 8;
  const auto model = facade_case_model(false, nu);
  const auto landscape = core::Landscape::random(nu, 4.0, 1.0, 29);
  const BlockLayout layout(nu, ranks);

  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);
  const auto gathered = distributed_power_iteration(model, landscape, ranks, opts);
  ASSERT_TRUE(gathered.converged);

  opts.gather_eigenvector = false;
  std::vector<std::vector<double>> blocks(ranks);
  LockstepGroup group(ranks);
  group.run([&](Exchange& ex) {
    const auto f = landscape.values().subspan(layout.block_begin(ex.rank()),
                                              layout.block_size());
    const std::vector<double> fitness(f.begin(), f.end());
    blocks[ex.rank()] = distributed_power_rank(ex, layout, model.site_factors(),
                                               fitness, opts, nullptr)
                            .eigenvector;
  });
  std::vector<double> joined;
  for (const auto& b : blocks) joined.insert(joined.end(), b.begin(), b.end());
  expect_same_bits(gathered.eigenvector, joined, "capacity blocks");
}

}  // namespace
}  // namespace qs::distributed
