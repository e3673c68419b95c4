// The distributed layer's determinism and equivalence suite.
//
// Three claims are pinned here:
//   1. the tree reductions of distributed/reduction.hpp compose: per-block
//      partials combined in tree order equal the global tree, bit for bit,
//      for every power-of-two block count;
//   2. the lockstep Exchange implements the collective contract (swaps,
//      tree-ordered allreduce, gather/scatter, structured desync errors,
//      no hangs when a rank dies);
//   3. the headline contract — a distributed power iteration is
//      BIT-IDENTICAL (eigenvalue, iteration count, residual stream,
//      eigenvector) to the serial facade run with tree_engine() and a
//      tree_landscape_start iterate, for every rank count, model kind,
//      and across checkpoint/resume boundaries (including resuming under
//      a different rank count).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/exchange.hpp"
#include "distributed/reduction.hpp"
#include "obs/metrics.hpp"
#include "parallel/engine.hpp"
#include "parallel/row_blocks.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "solvers/power_iteration.hpp"
#include "support/rng.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::distributed {
namespace {

// ---------------------------------------------------------------------------
// Tree reductions.
// ---------------------------------------------------------------------------

TEST(TreeReduction, BlockPartialsComposeToTheGlobalTree) {
  // The keystone of the rank-count invariance: summing aligned power-of-two
  // blocks with tree_sum and combining the partials in tree order must equal
  // the tree over the whole vector — exactly, not approximately.
  std::vector<double> v(1024);
  Xoshiro256 rng(42);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  const double whole = tree_sum(v);
  for (unsigned ranks : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const std::size_t block = v.size() / ranks;
    std::vector<double> partials(ranks);
    for (unsigned r = 0; r < ranks; ++r) {
      partials[r] = tree_sum(std::span<const double>(v).subspan(r * block, block));
    }
    const double composed = tree_sum(partials);
    EXPECT_EQ(composed, whole) << "ranks=" << ranks;
  }
}

TEST(TreeReduction, DotAndSquaresComposeToo) {
  std::vector<double> a(512), b(512);
  Xoshiro256 rng(7);
  for (double& x : a) x = rng.uniform(-2.0, 2.0);
  for (double& x : b) x = rng.uniform(-2.0, 2.0);
  const double whole_dot = tree_dot(a, b);
  const double whole_sq = tree_sum_squares(a);
  for (unsigned ranks : {2u, 8u, 32u}) {
    const std::size_t block = a.size() / ranks;
    std::vector<double> pd(ranks), ps(ranks);
    for (unsigned r = 0; r < ranks; ++r) {
      const auto sa = std::span<const double>(a).subspan(r * block, block);
      const auto sb = std::span<const double>(b).subspan(r * block, block);
      pd[r] = tree_dot(sa, sb);
      ps[r] = tree_sum_squares(sa);
    }
    EXPECT_EQ(tree_sum(pd), whole_dot) << "ranks=" << ranks;
    EXPECT_EQ(tree_sum(ps), whole_sq) << "ranks=" << ranks;
  }
}

TEST(TreeReduction, TreeEngineMatchesTheFreeFunctions) {
  // tree_engine() is the serial engine; a row-block sum on it, or on a
  // multi-lane pool, with tree-ordered block partials gives the free
  // functions' bits — the order comes from the blocks, not the engine.
  const std::size_t n = std::size_t{1} << 16;
  std::vector<double> v(n);
  Xoshiro256 rng(3);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  const parallel::ThreadPoolBackend pool(4);
  for (const parallel::Engine* engine :
       {&tree_engine(), static_cast<const parallel::Engine*>(&pool)}) {
    parallel::RowBlocks blocks(*engine, n, 1, 3);
    double out[3] = {};
    blocks.sums(3, [&v](std::size_t begin, std::size_t end, double* partial) {
      const std::span<const double> part(v.data() + begin, end - begin);
      partial[0] = tree_sum(part);
      partial[1] = tree_abs_sum(part);
      partial[2] = tree_sum_squares(part);
    }, out);
    EXPECT_EQ(out[0], tree_sum(v)) << engine->name();
    EXPECT_EQ(out[1], tree_abs_sum(v)) << engine->name();
    EXPECT_EQ(out[2], tree_sum_squares(v)) << engine->name();
    EXPECT_EQ(out[2], tree_dot(v, v)) << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Lockstep exchange primitives.
// ---------------------------------------------------------------------------

TEST(LockstepExchange, SendrecvSwapsBlocksBetweenPartners) {
  LockstepGroup group(4);
  std::vector<std::vector<double>> got(4);
  group.run([&](Exchange& ex) {
    const unsigned partner = ex.rank() ^ 1u;
    std::vector<double> mine(8, static_cast<double>(ex.rank()) + 1.0);
    std::vector<double> theirs(8, -1.0);
    ex.sendrecv(partner, mine, theirs, 5);
    got[ex.rank()] = theirs;
    EXPECT_EQ(ex.stats().messages, 1u);
    EXPECT_EQ(ex.stats().doubles_moved, 8u);
  });
  for (unsigned rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(got[rank], std::vector<double>(8, static_cast<double>(rank ^ 1u) + 1.0));
  }
}

TEST(LockstepExchange, AllreduceIsTreeOrderedAndIdenticalEverywhere) {
  const unsigned ranks = 8;
  std::vector<double> partials(ranks);
  Xoshiro256 rng(11);
  for (double& p : partials) p = rng.uniform(-1.0, 1.0);
  const double expected = tree_sum(partials);

  LockstepGroup group(ranks);
  std::vector<double> got(ranks);
  group.run([&](Exchange& ex) {
    got[ex.rank()] = ex.allreduce_sum(partials[ex.rank()], 3);
    EXPECT_EQ(ex.stats().allreduce_calls, 1u);
  });
  for (unsigned rank = 0; rank < ranks; ++rank) {
    EXPECT_EQ(got[rank], expected) << "rank " << rank;
  }
}

TEST(LockstepExchange, VectorAllreduceAndGatherScatterRoundTrip) {
  const unsigned ranks = 4;
  const std::size_t block = 16;
  std::vector<double> image(ranks * block);
  Xoshiro256 rng(13);
  for (double& v : image) v = rng.uniform(0.0, 1.0);

  LockstepGroup group(ranks);
  std::vector<double> gathered(ranks * block, 0.0);
  group.run([&](Exchange& ex) {
    // Scatter the image, then gather it back: exact round trip.
    std::vector<double> mine(block, 0.0);
    ex.scatter_from_root(mine,
                         ex.rank() == 0 ? std::span<const double>(image)
                                        : std::span<const double>{},
                         1);
    for (std::size_t t = 0; t < block; ++t) {
      ASSERT_EQ(mine[t], image[ex.rank() * block + t]);
    }
    ex.gather_to_root(mine,
                      ex.rank() == 0 ? std::span<double>(gathered)
                                     : std::span<double>{},
                      2);
    // Element-wise vector allreduce: every rank contributes [rank, 2*rank].
    std::vector<double> vec = {static_cast<double>(ex.rank()),
                               2.0 * static_cast<double>(ex.rank())};
    ex.allreduce_sum(std::span<double>(vec), 3);
    EXPECT_EQ(vec[0], 6.0);   // 0+1+2+3
    EXPECT_EQ(vec[1], 12.0);
  });
  EXPECT_EQ(gathered, image);
}

TEST(LockstepExchange, TagMismatchFailsEveryRankWithoutHanging) {
  LockstepGroup group(4);
  EXPECT_THROW(group.run([&](Exchange& ex) {
    // Rank 2 runs a different collective tag: a desynchronised program.
    const unsigned tag = ex.rank() == 2 ? 9 : 5;
    ex.allreduce_sum(1.0, tag);
  }),
               ExchangeError);
}

TEST(LockstepExchange, ARankDyingOutsideACollectiveFailsTheGroup) {
  // A rank that throws between collectives (a solver guard, a bad alloc)
  // must not leave the surviving ranks waiting at the barrier forever.
  LockstepGroup group(4);
  EXPECT_THROW(group.run([&](Exchange& ex) {
    if (ex.rank() == 2) throw std::runtime_error("rank 2 died");
    ex.allreduce_sum(1.0, 1);
    ex.allreduce_sum(2.0, 2);
  }),
               std::runtime_error);  // lowest-rank error: ExchangeError is one
}

// ---------------------------------------------------------------------------
// Bit-identical equivalence with the serial facade.
// ---------------------------------------------------------------------------

struct FacadeRun {
  solvers::PowerResult result;
  std::vector<std::pair<unsigned, double>> residuals;
};

/// The serial facade of a distributed solve: the blocked Fmmp operator with
/// the same plan, tree_engine() reductions, and a verbatim
/// tree_landscape_start iterate via an iteration-0 checkpoint (so the start
/// is NOT re-normalised with the serial left-to-right norm).
FacadeRun run_facade(const core::MutationModel& model,
                     const core::Landscape& landscape,
                     const DistributedPowerOptions& options) {
  FacadeRun out;
  const core::FmmpOperator op(model, landscape, core::Formulation::right,
                              &parallel::serial_engine(), options.plan);
  solvers::PowerOptions popts;
  static_cast<solvers::IterationOptions&>(popts) =
      static_cast<const solvers::IterationOptions&>(options);
  popts.shift = options.shift;
  popts.engine = &tree_engine();
  popts.on_residual = [&out](unsigned it, double r) {
    out.residuals.emplace_back(it, r);
  };
  io::SolverCheckpoint start;
  start.iteration = 0;
  start.solver_kind = io::SolverKind::power;
  start.best_residual = std::numeric_limits<double>::infinity();
  start.window_start_best = std::numeric_limits<double>::infinity();
  start.eigenvector = tree_landscape_start(landscape);
  out.result = solvers::resume_power_iteration(op, start, popts);
  return out;
}

void expect_bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

struct EquivalenceCase {
  const char* name;
  bool per_site;
  unsigned nu;
  unsigned ranks;
};

class DistEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  static core::MutationModel make_model(const EquivalenceCase& c) {
    if (!c.per_site) return core::MutationModel::uniform(c.nu, 0.03);
    // Per-site with a different (symmetric) rate at every site, so the
    // rank-local banded kernel sees genuinely distinct Factor2 levels and
    // conservative_shift still applies.
    std::vector<transforms::Factor2> sites;
    for (unsigned k = 0; k < c.nu; ++k) {
      sites.push_back(
          transforms::Factor2::uniform(0.01 + 0.004 * static_cast<double>(k)));
    }
    return core::MutationModel::per_site(std::move(sites));
  }
};

TEST_P(DistEquivalence, LockstepSolveIsBitIdenticalToTheSerialFacade) {
  const EquivalenceCase c = GetParam();
  const auto model = make_model(c);
  const auto landscape = core::Landscape::random(c.nu, 5.0, 1.0, 17);

  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);
  const FacadeRun facade = run_facade(model, landscape, opts);
  ASSERT_TRUE(facade.result.converged);

  std::vector<std::pair<unsigned, double>> residuals;
  opts.on_residual = [&residuals](unsigned it, double r) {
    residuals.emplace_back(it, r);
  };
  const auto dist = distributed_power_iteration(model, landscape, c.ranks, opts);

  EXPECT_TRUE(dist.converged);
  EXPECT_EQ(dist.eigenvalue, facade.result.eigenvalue);       // exact bits
  EXPECT_EQ(dist.iterations, facade.result.iterations);
  EXPECT_EQ(dist.residual, facade.result.residual);
  EXPECT_EQ(residuals, facade.residuals);                     // full stream
  expect_bit_equal(dist.eigenvector, facade.result.eigenvector);

  // Collectives, per rank: the start norm, {x.x, x.y} and {res2, ||y||_1,
  // control} per iteration (a residual check every iteration), and the
  // final {sign, 1-norm}.
  EXPECT_EQ(dist.traffic.allreduce_calls,
            std::size_t{c.ranks} * (2 * std::size_t{dist.iterations} + 2));

  // Plan provenance: the rank-local levels ran the banded kernel with the
  // plan's resolved sv tier, and the level split matches the layout.
  EXPECT_EQ(dist.plan_kernel,
            transforms::resolved_sv_kernel_name(opts.plan.sv_kernel));
  EXPECT_EQ(dist.local_levels, c.nu - BlockLayout(c.nu, c.ranks).rank_bits());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistEquivalence,
    ::testing::Values(EquivalenceCase{"uniform_r1", false, 10, 1},
                      EquivalenceCase{"uniform_r2", false, 10, 2},
                      EquivalenceCase{"uniform_r4", false, 10, 4},
                      EquivalenceCase{"uniform_r16", false, 10, 16},
                      EquivalenceCase{"per_site_r4", true, 10, 4},
                      EquivalenceCase{"per_site_r16", true, 10, 16},
                      // The max-rank edge: every rank holds exactly two
                      // entries and only level 0 is local.
                      EquivalenceCase{"uniform_max_ranks", false, 6, 32},
                      EquivalenceCase{"per_site_max_ranks", true, 6, 32}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DistEquivalenceExtra, BlocksEntryMatchesTheLandscapeEntryBitwise) {
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 4.0, 1.0, 23);
  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);

  const auto whole = distributed_power_iteration(model, landscape, 4, opts);
  const auto blocks = distributed_power_iteration_blocks(
      model, 4,
      [&landscape](const BlockLayout& layout, unsigned rank) {
        const auto v = landscape.values().subspan(layout.block_begin(rank),
                                                  layout.block_size());
        return std::vector<double>(v.begin(), v.end());
      },
      opts);
  EXPECT_EQ(blocks.eigenvalue, whole.eigenvalue);
  EXPECT_EQ(blocks.iterations, whole.iterations);
  expect_bit_equal(blocks.eigenvector, whole.eigenvector);
}

TEST(DistEquivalenceExtra, SparseChecksKeepTheSerialStretches) {
  // With a residual check every 8th product both sides leave the iterate
  // unnormalised between checks.  The facade's operator reports the
  // landscape's fitness range and the ranks gather the same range before
  // the loop, so they agree on K (the range spans just over 2^19, so
  // K = 3, below the cadence: the forced renormalisations run too) and on
  // every bit.
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  std::vector<double> values(std::size_t{1} << nu);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::ldexp(1.0 + 0.001 * static_cast<double>(i % 13),
                           static_cast<int>(i % 20));
  }
  const auto landscape = core::Landscape::from_values(nu, values);
  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);
  opts.residual_check_every = 8;
  const FacadeRun facade = run_facade(model, landscape, opts);
  ASSERT_TRUE(facade.result.converged);
  for (const unsigned ranks : {2u, 4u}) {
    SCOPED_TRACE(ranks);
    DistributedPowerOptions dopts = opts;
    std::vector<std::pair<unsigned, double>> residuals;
    dopts.on_residual = [&residuals](unsigned it, double r) {
      residuals.emplace_back(it, r);
    };
    const auto dist = distributed_power_iteration(model, landscape, ranks, dopts);
    EXPECT_TRUE(dist.converged);
    EXPECT_EQ(dist.iterations, facade.result.iterations);
    EXPECT_EQ(dist.eigenvalue, facade.result.eigenvalue);
    EXPECT_EQ(dist.residual, facade.result.residual);
    EXPECT_EQ(residuals, facade.residuals);
    expect_bit_equal(dist.eigenvector, facade.result.eigenvector);
  }
}

TEST(DistEquivalenceExtra, CapacityModeKeepsOnlyTheRankBlock) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.04);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 29);
  DistributedPowerOptions opts;
  opts.gather_eigenvector = false;
  const auto dist = distributed_power_iteration(model, landscape, 4, opts);
  ASSERT_TRUE(dist.converged);
  ASSERT_EQ(dist.eigenvector.size(), 64u);  // 2^8 / 4, rank 0's block only

  const auto full = distributed_power_iteration(model, landscape, 4);
  for (std::size_t i = 0; i < 64; ++i) {
    // Same solve, same final normalisation (every block scaled by the
    // allreduced tree 1-norm before any gather): the same bits.
    EXPECT_EQ(dist.eigenvector[i], full.eigenvector[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Cancellation, checkpoint/resume.
// ---------------------------------------------------------------------------

TEST(DistCancellation, AgreedStopFlushesACheckpointAndPartialTraffic) {
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 31);

  std::atomic<bool> stop{false};
  std::atomic<unsigned> checks{0};
  std::vector<io::SolverCheckpoint> sunk;
  DistributedPowerOptions opts;
  opts.tolerance = 0.0;      // never converges
  opts.stall_window = 0;     // never stalls
  opts.max_iterations = 200;
  opts.on_residual = [&](unsigned, double) {
    if (++checks >= 3) stop.store(true);
  };
  opts.should_stop = [&stop] { return stop.load(); };
  opts.checkpoint_every = 1000;  // configured, but the cadence never fires
  opts.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) {
    sunk.push_back(ck);
  };

  const auto dist = distributed_power_iteration(model, landscape, 4, opts);
  EXPECT_EQ(dist.failure, solvers::SolverFailure::cancelled);
  EXPECT_FALSE(dist.converged);
  EXPECT_LT(dist.iterations, 200u);
  // The cancel path flushed exactly one checkpoint, of the pre-update
  // iterate (the result of the iteration before the cancelled one), with
  // the full gathered vector.
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0].iteration, dist.iterations - 1);
  EXPECT_EQ(sunk[0].eigenvector.size(), std::size_t{1} << nu);
  // Partial traffic was aggregated before returning.
  EXPECT_GT(dist.traffic.messages, 0u);
  EXPECT_GT(dist.traffic.allreduce_calls, 0u);
}

// The other direction: a checkpoint written by an engine-parallel serial
// solve (four lanes, so each pass runs as four 2^12 blocks) resumes serially
// and at lockstep R = 2, and both continue the uninterrupted serial run's
// trajectory bit for bit.
void expect_engine_checkpoint_resumes_bit_identically() {
  const unsigned nu = 14;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 47);
  const DistributedPowerOptions defaults;
  const core::FmmpOperator op(model, landscape, core::Formulation::right,
                              &parallel::serial_engine(), defaults.plan);
  const auto start = tree_landscape_start(landscape);
  solvers::PowerOptions popts;
  popts.shift = core::conservative_shift(model, landscape);

  std::vector<std::pair<unsigned, double>> ref_stream;
  solvers::PowerOptions ref_opts = popts;
  ref_opts.on_residual = [&ref_stream](unsigned it, double r) {
    ref_stream.emplace_back(it, r);
  };
  const auto ref = solvers::power_iteration(op, start, ref_opts);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 6u) << "test needs a few iterations to interrupt";

  parallel::ThreadPoolBackend pool(4);
  std::vector<io::SolverCheckpoint> sunk;
  solvers::PowerOptions ck_opts = popts;
  ck_opts.engine = &pool;
  ck_opts.checkpoint_every = 5;
  ck_opts.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) {
    sunk.push_back(ck);
  };
  (void)solvers::power_iteration(op, start, ck_opts);
  ASSERT_FALSE(sunk.empty());
  const io::SolverCheckpoint& ck = sunk.front();
  ASSERT_EQ(ck.iteration, 5u);
  const std::vector<std::pair<unsigned, double>> ref_tail(ref_stream.begin() + 5,
                                                          ref_stream.end());

  std::vector<std::pair<unsigned, double>> serial_stream;
  solvers::PowerOptions serial_opts = popts;
  serial_opts.on_residual = [&serial_stream](unsigned it, double r) {
    serial_stream.emplace_back(it, r);
  };
  const auto serial = solvers::resume_power_iteration(op, ck, serial_opts);
  EXPECT_EQ(serial.eigenvalue, ref.eigenvalue);
  EXPECT_EQ(serial.iterations, ref.iterations);
  EXPECT_EQ(serial_stream, ref_tail);
  expect_bit_equal(serial.eigenvector, ref.eigenvector);

  std::vector<std::pair<unsigned, double>> dist_stream;
  DistributedPowerOptions dopts;
  dopts.shift = popts.shift;
  dopts.on_residual = [&dist_stream](unsigned it, double r) {
    dist_stream.emplace_back(it, r);
  };
  const auto dist = resume_distributed_power_iteration(model, landscape, 2, ck, dopts);
  EXPECT_EQ(dist.eigenvalue, ref.eigenvalue);
  EXPECT_EQ(dist.iterations, ref.iterations);
  EXPECT_EQ(dist_stream, ref_tail);
  expect_bit_equal(dist.eigenvector, ref.eigenvector);
}

TEST(DistResume, ResumingUnderADifferentRankCountIsBitIdentical) {
  const unsigned nu = 9;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 37);
  DistributedPowerOptions opts;
  opts.shift = core::conservative_shift(model, landscape);

  // Uninterrupted reference with its residual stream.
  std::vector<std::pair<unsigned, double>> ref_stream;
  DistributedPowerOptions ref_opts = opts;
  ref_opts.on_residual = [&ref_stream](unsigned it, double r) {
    ref_stream.emplace_back(it, r);
  };
  const auto ref = distributed_power_iteration(model, landscape, 4, ref_opts);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 6u) << "test needs a few iterations to interrupt";

  // Interrupted run: checkpoint every 5 iterations into a sink.
  std::vector<io::SolverCheckpoint> sunk;
  DistributedPowerOptions ck_opts = opts;
  ck_opts.checkpoint_every = 5;
  ck_opts.checkpoint_sink = [&sunk](const io::SolverCheckpoint& ck) {
    sunk.push_back(ck);
  };
  (void)distributed_power_iteration(model, landscape, 4, ck_opts);
  ASSERT_FALSE(sunk.empty());
  const io::SolverCheckpoint& ck = sunk.front();
  ASSERT_EQ(ck.iteration, 5u);

  // Resume under a DIFFERENT rank count; trajectory must continue exactly.
  std::vector<std::pair<unsigned, double>> resumed_stream;
  DistributedPowerOptions res_opts = opts;
  res_opts.on_residual = [&resumed_stream](unsigned it, double r) {
    resumed_stream.emplace_back(it, r);
  };
  const auto resumed =
      resume_distributed_power_iteration(model, landscape, 8, ck, res_opts);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.eigenvalue, ref.eigenvalue);
  EXPECT_EQ(resumed.iterations, ref.iterations);
  expect_bit_equal(resumed.eigenvector, ref.eigenvector);
  const std::vector<std::pair<unsigned, double>> ref_tail(
      ref_stream.begin() + 5, ref_stream.end());
  EXPECT_EQ(resumed_stream, ref_tail);

  // And the SERIAL solver can resume the distributed checkpoint to the same
  // bits — the checkpoint format is one world.
  const core::FmmpOperator op(model, landscape, core::Formulation::right,
                              &parallel::serial_engine(), opts.plan);
  solvers::PowerOptions popts;
  popts.shift = opts.shift;
  popts.engine = &tree_engine();
  const auto serial = solvers::resume_power_iteration(op, ck, popts);
  EXPECT_TRUE(serial.converged);
  EXPECT_EQ(serial.eigenvalue, ref.eigenvalue);
  EXPECT_EQ(serial.iterations, ref.iterations);
  expect_bit_equal(serial.eigenvector, ref.eigenvector);

  expect_engine_checkpoint_resumes_bit_identically();
}

// ---------------------------------------------------------------------------
// Observability.
// ---------------------------------------------------------------------------

TEST(DistMetrics, SolveRecordsTransportAndKernelProvenance) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.03);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 41);
  (void)distributed_power_iteration(model, landscape, 4);

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  auto info = [&snap](const std::string& key) -> std::string {
    for (const auto& [k, v] : snap.info) {
      if (k == key) return v;
    }
    return {};
  };
  auto value = [&snap](const std::string& key) -> double {
    for (const auto& [k, v] : snap.values) {
      if (k == key) return v;
    }
    return -1.0;
  };
  EXPECT_EQ(info("dist.exchange"), "lockstep");
  EXPECT_EQ(info("dist.sv_kernel"),
            transforms::resolved_sv_kernel_name(transforms::SvKernel::automatic));
  EXPECT_EQ(value("dist.ranks"), 4.0);
  EXPECT_EQ(value("dist.local_levels"), 6.0);   // nu=8, 2 rank bits
  EXPECT_EQ(value("dist.block_doubles"), 64.0);
  EXPECT_GT(value("dist.messages"), 0.0);
}

}  // namespace
}  // namespace qs::distributed
