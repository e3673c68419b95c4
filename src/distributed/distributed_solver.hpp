// Distributed-memory Fmmp and power iteration over the Exchange transport.
//
// The distributed solve is an SPMD program: every rank owns one contiguous
// 2^(nu-k) block of the concentration vector (BlockLayout), runs the bottom
// nu-k butterfly levels rank-locally through the banded blocked kernel
// (transforms/blocked_butterfly — same BlockedPlan, same sv microkernels as
// the serial solver), and performs one pairwise block exchange per top
// level, combining the partner's segments while later segments are still in
// flight (Exchange::sendrecv_overlapped).  Global reductions go through the
// tree order of distributed/reduction.hpp, which makes every number the
// solve produces independent of the rank count and the transport.
//
// Each rank runs the one power iteration, solvers::run_power_loop, over a
// BlockCollective implemented with its Exchange.  Its control plane is
// solvers::IterationDriver, replicated MPI-style: every rank runs its own
// driver on identical allreduced values, so convergence, stall windows,
// NaN/Inf guards, and cancellation verdicts are taken identically
// everywhere; the stop vote and rank 0's wall-clock checkpoint cadence ride
// in a control word with the residual sums (two allreduces per residual
// check, one otherwise).  Checkpoint writes and observability hooks fire on
// rank 0 only, against the gathered full iterate, so checkpoint files
// interoperate with the serial solver's resume path.
//
// Equivalence contract (tested in tests/distributed_exchange_test.cpp and
// derived in docs/distributed.md): for any power-of-two rank count and
// either transport, the solve is BIT-IDENTICAL — eigenvalue, iteration
// count, full residual stream, and eigenvector, gathered or not — to the
// default serial facade solvers::solve(model, landscape) with the same
// shift and plan.  Both start from landscape_start and run the same loop,
// which forms every sum with the same tree-ordered SvKernels reductions (a
// rank's block sum is a complete subtree of the serial sum), so the
// identity holds by construction — with any engine on the serial side.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "distributed/block_layout.hpp"
#include "distributed/exchange.hpp"
#include "io/binary_io.hpp"
#include "solvers/iteration_driver.hpp"
#include "solvers/power_iteration.hpp"
#include "support/contracts.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::distributed {

/// The distributed layer was handed a problem class its kernels cannot run
/// (today: grouped mutation models, whose factors are dense per-group
/// matrices rather than 2x2 site factors).  Structured — carries the
/// offending kind and maps onto SolverFailure::unsupported — so callers can
/// route the solve to a serial backend instead of dying on a contract
/// abort.  Derives from precondition_error: pre-existing catch sites keep
/// working.
class UnsupportedModelError : public precondition_error {
 public:
  explicit UnsupportedModelError(core::MutationKind kind);

  core::MutationKind kind() const { return kind_; }
  solvers::SolverFailure failure() const {
    return solvers::SolverFailure::unsupported;
  }

 private:
  core::MutationKind kind_;
};

/// Which Exchange implementation a distributed solve runs on.
enum class ExchangeKind {
  lockstep,  ///< In-process rank-per-thread transport (deterministic tests).
  process,   ///< Real fork + AF_UNIX transport; each rank owns only its block.
};

const char* to_string(ExchangeKind kind);

/// One rank's share of the distributed W x = Q F x (right formulation):
/// the fitness scaling fused into the banded blocked butterfly for the
/// bottom log2(block) levels, on this rank's block only, then one
/// overlapped pairwise exchange per cross-rank level, combined with the
/// span kernel of the sv table `plan` resolves to.  Every rank of
/// `exchange` calls it together; each reads its block of x and writes its
/// block of y (both layout.block_size() long), and `recv` is a block-sized
/// scratch buffer.  The gathered blocks are bit-identical to the serial
/// core::FmmpOperator product under the same plan.  Traffic accumulates in
/// exchange.stats().
void distributed_apply_w(Exchange& exchange, const BlockLayout& layout,
                         std::span<const transforms::Factor2> sites,
                         std::span<const double> fitness_block,
                         const transforms::BlockedPlan& plan,
                         std::span<const double> x, std::span<double> y,
                         std::span<double> recv);

/// Options of the distributed power iteration.  Everything IterationOptions
/// offers works unchanged: tolerance / stall windows, checkpoint_path /
/// checkpoint_sink / checkpoint_every[_seconds] (written by rank 0 against
/// the gathered iterate; resumable by the serial solver and vice versa),
/// on_residual (rank 0), and should_stop (polled on every rank, agreed via
/// allreduce — any rank can cancel the whole solve).  `engine` and
/// `workspace` are ignored: rank-local compute is serial and owns its
/// buffers (parallelism is across ranks), and an engine would not change
/// the bits anyway.
struct DistributedPowerOptions : solvers::IterationOptions {
  /// Power-iteration shift (x <- (W - shift I) x updates).
  double shift = 0.0;

  /// Tiling/microkernel plan of the rank-local banded butterfly; the same
  /// plan type (and provenance strings) the serial blocked solver uses.
  transforms::BlockedPlan plan;

  /// Transport to run on.
  ExchangeKind exchange = ExchangeKind::lockstep;

  /// Gather the final eigenvector to rank 0.  Disable for capacity runs
  /// where no single rank should materialise the 2^nu vector; each rank
  /// then keeps its own block.  Either way every block is normalised by the
  /// tree-ordered global 1-norm, exactly as the serial solver normalises.
  bool gather_eigenvector = true;

  /// Per-chunk socket timeout of the process transport (ms); a dead peer
  /// costs at most this long before the solve fails with ExchangeError.
  unsigned exchange_timeout_ms = 30000;
};

/// Result of a distributed solve (rank 0's view).
struct DistributedPowerResult : solvers::IterationResult {
  /// Gathered full eigenvector (gather_eigenvector == true), else rank 0's
  /// block.
  std::vector<double> eigenvector;

  /// Traffic aggregated over all ranks (allreduced at the end of the solve;
  /// on a cancelled or failed solve these are the partial totals up to the
  /// abort point).
  TrafficStats traffic;

  unsigned rank_count = 0;

  /// Resolved sv microkernel provenance of the rank-local banded kernel
  /// ("scalar" / "avx2" / "avx512") — proof of which kernel tier ran.
  std::string plan_kernel;

  /// Butterfly levels that ran rank-locally (log2 of the block size).
  unsigned local_levels = 0;

  /// The power loop's shift schedule, identical on every rank.
  solvers::ShiftScheduleReport shift_schedule;

  /// The power loop's dropped mass (solvers::PowerResult), identical on
  /// every rank.
  double dropped_mass = 0.0;
};

/// Produces each rank's landscape block: called once per rank with the
/// layout and the rank id, must return block_size() fitness values.  This is
/// the capacity-run entry point — no rank ever holds the full landscape.
using FitnessBlockFn =
    std::function<std::vector<double>(const BlockLayout& layout, unsigned rank)>;

/// The starting iterate of a distributed solve: the landscape scaled by the
/// reciprocal of its tree-ordered 1-norm.  Another name for
/// solvers::landscape_start, kept for existing callers.
std::vector<double> tree_landscape_start(const core::Landscape& landscape);

/// Shifted power iteration over the blocked decomposition.  Requires a
/// 2x2-factor model (throws UnsupportedModelError for grouped ones) and
/// rank_count a power of two <= 2^(nu-1).
DistributedPowerResult distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const DistributedPowerOptions& options = {});

/// Same solve with rank-sourced landscape blocks (no full landscape
/// anywhere).  gather_eigenvector defaults should be set false by callers
/// at capacity scale.
DistributedPowerResult distributed_power_iteration_blocks(
    const core::MutationModel& model, unsigned rank_count,
    const FitnessBlockFn& fitness, const DistributedPowerOptions& options = {});

/// Resumes a distributed solve from a checkpoint written by a previous
/// distributed run or by the serial power iteration (kind must be power /
/// unspecified; the iterate is taken verbatim).  The rank count may differ
/// from the run that wrote the checkpoint — the trajectory continues
/// bit-identically regardless.
DistributedPowerResult resume_distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const io::SolverCheckpoint& checkpoint,
    const DistributedPowerOptions& options = {});

/// One rank's body of the distributed power iteration, exposed so tests and
/// custom launchers can drive it over any Exchange.  `fitness_block` is this
/// rank's landscape block; `resume`, when set, must be valid on every rank
/// (scalars are read everywhere, the iterate slice locally).  Returns this
/// rank's view of the result (rank 0's carries the gathered eigenvector and
/// the aggregated traffic).
DistributedPowerResult distributed_power_rank(
    Exchange& exchange, const BlockLayout& layout,
    std::span<const transforms::Factor2> sites,
    std::span<const double> fitness_block, const DistributedPowerOptions& options,
    const io::SolverCheckpoint* resume = nullptr);

}  // namespace qs::distributed
