#include "distributed/distributed_solver.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/span_wire.hpp"
#include "obs/trace.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "support/timer.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::distributed {
namespace {

// Collective tags.  The butterfly exchanges use the level index (0..nu-1)
// so a rank one level ahead of its partner fails with a named tag mismatch;
// the reduction/gather tags live above any level index.  The power loop's
// allreduces share one tag: their lengths (3, 2 or 2) and order tell them
// apart.
constexpr unsigned kTagStartNorm = 100;
constexpr unsigned kTagLoop = 101;
constexpr unsigned kTagFitnessRange = 102;
constexpr unsigned kTagGather = 108;
constexpr unsigned kTagStats = 109;
constexpr unsigned kTagSpanLens = 110;  ///< Packed span-buffer lengths.
constexpr unsigned kTagSpanShip = 111;  ///< Span buffers gathered to root.

const char* kind_name(core::MutationKind kind) {
  switch (kind) {
    case core::MutationKind::uniform: return "uniform";
    case core::MutationKind::per_site: return "per_site";
    case core::MutationKind::grouped: return "grouped";
  }
  return "unknown";
}

/// One rank's side of the power loop: the product is this rank's share of
/// the distributed Fmmp, and the loop's reductions and gathers go through
/// the Exchange.
class RankCollective final : public solvers::BlockCollective {
 public:
  RankCollective(Exchange& exchange, const BlockLayout& layout,
                 std::span<const transforms::Factor2> sites,
                 std::span<const double> fitness_block,
                 const transforms::BlockedPlan& plan,
                 std::optional<core::FitnessRange> fitness_range)
      : exchange_(exchange),
        layout_(layout),
        sites_(sites),
        fitness_block_(fitness_block),
        plan_(plan),
        fitness_range_(fitness_range),
        recv_(layout.block_size()) {}

  void apply(std::span<const double> x, std::span<double> y) override {
    distributed_apply_w(exchange_, layout_, sites_, fitness_block_, plan_, x, y,
                        recv_);
  }
  void allreduce(std::span<double> values) override {
    exchange_.allreduce_sum(values, kTagLoop);
  }
  std::span<const double> gather(std::span<const double> x) override {
    if (is_root()) full_.resize(x.size() * layout_.rank_count());
    exchange_.gather_to_root(x, full_, kTagGather);
    return full_;
  }
  bool is_root() const override { return exchange_.rank() == 0; }
  unsigned participants() const override { return exchange_.rank_count(); }
  std::optional<core::FitnessRange> fitness_range() const override {
    return fitness_range_;
  }

  /// gather(), handing over the buffer (rank 0's result vector).
  std::vector<double> gather_result(std::span<const double> x) {
    gather(x);
    return std::move(full_);
  }

 private:
  Exchange& exchange_;
  const BlockLayout& layout_;
  std::span<const transforms::Factor2> sites_;
  std::span<const double> fitness_block_;
  const transforms::BlockedPlan& plan_;
  std::optional<core::FitnessRange> fitness_range_;
  std::vector<double> recv_;  ///< The butterfly's partner block.
  std::vector<double> full_;  ///< Rank 0's gather target.
};

/// Ships every rank's span buffer to rank 0 and merges them into its
/// snapshot, so one Chrome trace shows per-rank tracks with the request's
/// trace id.  Runs only over a transport whose ranks live in separate
/// address spaces (forked processes): in-process lockstep ranks already
/// share the span registry.  All ranks must call this together — it is a
/// collective rendezvous (one allreduce + one gather), and the decision to
/// run is replicated (compile gate, enabled flag, and transport kind are
/// identical on every rank).
void ship_spans_to_root(Exchange& exchange, std::uint64_t rank_start_ns) {
  if (!obs::compiled_in() || !obs::enabled()) return;
  if (exchange.shared_address_space()) return;
  const unsigned rank = exchange.rank();
  const unsigned ranks = exchange.rank_count();
  const bool root = rank == 0;

  std::vector<double> packed;
  if (!root) {
    // fork() duplicated rank 0's span rings into this child, so the
    // snapshot holds the parent's pre-fork spans too; ship only what this
    // rank recorded itself (started at or after its own entry), capped to
    // the most recent records to bound the gather.
    std::vector<obs::SpanRecord> spans = obs::snapshot_spans();
    std::erase_if(spans, [rank_start_ns](const obs::SpanRecord& s) {
      return s.start_ns < rank_start_ns;
    });
    constexpr std::size_t kMaxShippedSpans = 16384;
    if (spans.size() > kMaxShippedSpans) {
      spans.erase(spans.begin(),
                  spans.end() - static_cast<std::ptrdiff_t>(kMaxShippedSpans));
    }
    packed = obs::pack_spans(spans);
  }

  // The binomial gather needs equal block sizes: agree on the longest
  // packed buffer, pad everyone up to it, and slice exact lengths on root.
  std::vector<double> lens(ranks, 0.0);
  lens[rank] = static_cast<double>(packed.size());
  exchange.allreduce_sum(std::span<double>(lens), kTagSpanLens);
  std::size_t max_len = 0;
  for (double l : lens) max_len = std::max(max_len, static_cast<std::size_t>(l));
  if (max_len == 0) return;  // span-less run everywhere: skip the gather
  packed.resize(max_len, 0.0);

  std::vector<double> full;
  if (root) full.resize(max_len * ranks);
  exchange.gather_to_root(
      packed, root ? std::span<double>(full) : std::span<double>{}, kTagSpanShip);
  if (!root) return;

  std::vector<obs::SpanRecord> remote;
  for (unsigned r = 1; r < ranks; ++r) {
    remote.clear();
    const std::span<const double> slice(full.data() + r * max_len,
                                        static_cast<std::size_t>(lens[r]));
    if (obs::unpack_spans(slice, remote)) {
      obs::import_spans(remote, obs::kRankTidBase + r * obs::kRankTidStride);
    }
    // A malformed buffer (a rank died mid-pack) is dropped, not fatal:
    // telemetry must never fail a solve that already finished.
  }
}

}  // namespace

UnsupportedModelError::UnsupportedModelError(core::MutationKind kind)
    : precondition_error(
          std::string("distributed solver: unsupported mutation model kind '") +
          kind_name(kind) +
          "' (the distributed kernels require 2x2 site factors; run the "
          "serial solver for grouped models)"),
      kind_(kind) {}

const char* to_string(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::lockstep: return "lockstep";
    case ExchangeKind::process: return "process";
  }
  return "unknown";
}

void distributed_apply_w(Exchange& exchange, const BlockLayout& layout,
                         std::span<const transforms::Factor2> sites,
                         std::span<const double> fitness_block,
                         const transforms::BlockedPlan& plan,
                         std::span<const double> x, std::span<double> y,
                         std::span<double> recv) {
  const std::size_t block = layout.block_size();
  require(sites.size() == layout.nu() && fitness_block.size() == block &&
              x.size() == block && y.size() == block && recv.size() == block,
          "distributed_apply_w: factors or blocks do not match the layout");
  const unsigned rank = exchange.rank();
  const unsigned local_levels = log2_exact(block);
  {
    // Bottom nu-k levels: the same cache-blocked banded kernel (and sv
    // microkernel tier) the serial blocked solver runs, on this rank's
    // block only.  Rank-local compute is serial by design — the
    // parallelism of a distributed solve is across ranks.
    QS_TRACE_SPAN_ARG("dist.local_band", distributed, rank);
    transforms::apply_blocked_butterfly_fused(x, y, sites.first(local_levels),
                                              fitness_block, {},
                                              parallel::serial_engine(), plan);
  }
  const transforms::SvKernels& sv = transforms::resolve_sv_kernels(plan.sv_kernel);
  for (unsigned k = local_levels; k < layout.nu(); ++k) {
    const std::size_t stride = std::size_t{1} << k;
    const unsigned partner = layout.partner(rank, stride);
    const bool is_low = rank < partner;
    const transforms::Factor2 f = sites[k];
    QS_TRACE_SPAN_ARG("dist.exchange", distributed, k);
    QS_TRACE_COUNTER("dist.exchange_messages", 1);
    double* mine = y.data();
    double* theirs = recv.data();
    const std::uint64_t exchange_start = monotonic_ns();
    // The lower rank's block is the "lo" operand; the span kernel writes
    // both halves, and the partner's half is discarded.
    exchange.sendrecv_overlapped(
        partner, y, recv, k,
        [mine, theirs, is_low, f, &sv](std::size_t begin, std::size_t end) {
          double* lo = (is_low ? mine : theirs) + begin;
          double* hi = (is_low ? theirs : mine) + begin;
          sv.butterfly_span(lo, hi, end - begin, f);
        });
    static obs::Histogram& exchange_hist = obs::histogram("dist.exchange");
    exchange_hist.record_ns(monotonic_ns() - exchange_start);
  }
}

std::vector<double> tree_landscape_start(const core::Landscape& landscape) {
  return solvers::landscape_start(landscape);
}

DistributedPowerResult distributed_power_rank(
    Exchange& exchange, const BlockLayout& layout,
    std::span<const transforms::Factor2> sites,
    std::span<const double> fitness_block, const DistributedPowerOptions& options,
    const io::SolverCheckpoint* resume) {
  const unsigned rank = exchange.rank();
  const bool root = rank == 0;
  const std::size_t block = layout.block_size();
  // Span-shipping cutoff: a forked rank only ships spans that started at or
  // after its own entry (everything earlier is the parent's, already in
  // rank 0's rings).  Taken before any work so no own span is lost.
  const std::uint64_t rank_start_ns = monotonic_ns();
  require(exchange.rank_count() == layout.rank_count(),
          "distributed_power_rank: exchange/layout rank count mismatch");
  require(sites.size() == layout.nu(),
          "distributed_power_rank: factor count does not match nu");
  require(fitness_block.size() == block,
          "distributed_power_rank: fitness block has the wrong size");

  DistributedPowerResult out;
  out.rank_count = layout.rank_count();
  out.plan_kernel = transforms::resolved_sv_kernel_name(options.plan.sv_kernel);
  out.local_levels = log2_exact(block);

  // Replicated control plane (solvers::run_power_loop): every rank runs
  // its own IterationDriver on identical allreduced values.  Only rank 0
  // fires the residual hook; checkpoints are gathered on every rank and
  // written by rank 0.  Rank-local compute is serial and owns its buffers:
  // the parallelism of a distributed solve is across ranks.
  DistributedPowerOptions local = options;
  local.engine = nullptr;
  local.workspace = nullptr;
  if (!root) local.on_residual = nullptr;
  solvers::IterationDriver driver(local, io::SolverKind::power,
                                 sequence_count(layout.nu()));

  solvers::IterationTrace trace;
  trace.iterate.resize(block);
  if (resume != nullptr) {
    // Scalars verbatim on every rank; the iterate slice taken locally (the
    // wrappers validated finiteness and solver kind before spawning ranks).
    require(resume->eigenvector.size() == block * layout.rank_count(),
            "distributed_power_rank: checkpoint dimension mismatch");
    trace.start_iteration = static_cast<unsigned>(resume->iteration);
    trace.eigenvalue = resume->eigenvalue;
    trace.residual = resume->residual;
    trace.schedule = resume->schedule;
    driver.restore(*resume);
    const double* src = resume->eigenvector.data() + layout.block_begin(rank);
    std::copy(src, src + block, trace.iterate.begin());
  } else {
    // Cold start: the landscape block scaled by the reciprocal of the
    // global tree-ordered 1-norm — bit-identical to landscape_start.
    const transforms::SvKernels& red =
        transforms::resolve_sv_kernels(options.plan.sv_kernel);
    const double norm = exchange.allreduce_sum(
        red.tree_abs_sum(fitness_block.data(), block), kTagStartNorm);
    require(norm > 0.0, "distributed_power_iteration: landscape has zero 1-norm");
    const double inv = 1.0 / norm;
    for (std::size_t t = 0; t < block; ++t) trace.iterate[t] = fitness_block[t] * inv;
  }

  // The fitness range lets the loop leave its iterate unnormalised between
  // residual checks, as a serial solve does; with a check every iteration
  // it has no use, and the collective that gathers it is skipped.  Every
  // rank publishes its block's extremes in its own slots, so the sums are
  // the extremes themselves.
  std::optional<core::FitnessRange> fitness_range;
  if (options.residual_check_every > 1) {
    std::vector<double> extremes(2 * std::size_t{layout.rank_count()}, 0.0);
    const auto [lo, hi] = std::minmax_element(fitness_block.begin(), fitness_block.end());
    extremes[2 * rank] = *lo;
    extremes[2 * rank + 1] = *hi;
    exchange.allreduce_sum(std::span<double>(extremes), kTagFitnessRange);
    fitness_range = core::FitnessRange{extremes[0], extremes[1]};
    for (unsigned r = 1; r < layout.rank_count(); ++r) {
      fitness_range->min = std::min(fitness_range->min, extremes[2 * r]);
      fitness_range->max = std::max(fitness_range->max, extremes[2 * r + 1]);
    }
  }

  RankCollective collective(exchange, layout, sites, fitness_block, options.plan,
                            fitness_range);
  solvers::PowerResult r = solvers::run_power_loop(
      collective, std::move(trace), std::move(driver), local, options.shift);
  static_cast<solvers::IterationResult&>(out) = r;
  out.shift_schedule = r.shift_schedule;
  out.dropped_mass = r.dropped_mass;
  // Gathered or not, the block is already oriented, clamped and normalised
  // by the global tree sums; a failed or cancelled solve gathers its last
  // iterate anyway (post-mortem parity with the serial loop).
  out.eigenvector = options.gather_eigenvector
                        ? collective.gather_result(r.eigenvector)
                        : std::move(r.eigenvector);

  // Aggregate traffic over all ranks.  The snapshot is taken before the
  // aggregation allreduce so the aggregation itself is not counted.
  const TrafficStats mine = exchange.stats();
  double agg[5] = {static_cast<double>(mine.messages),
                   static_cast<double>(mine.doubles_moved),
                   static_cast<double>(mine.allreduce_calls),
                   static_cast<double>(mine.exchange_ns),
                   static_cast<double>(mine.overlap_ns)};
  exchange.allreduce_sum(std::span<double>(agg), kTagStats);
  out.traffic.messages = static_cast<std::size_t>(agg[0]);
  out.traffic.doubles_moved = static_cast<std::size_t>(agg[1]);
  out.traffic.allreduce_calls = static_cast<std::size_t>(agg[2]);
  out.traffic.exchange_ns = static_cast<std::uint64_t>(agg[3]);
  out.traffic.overlap_ns = static_cast<std::uint64_t>(agg[4]);

  // Final collective: merge every rank's span buffer into rank 0's
  // timeline (no-op in span-less builds, with tracing disabled, or when
  // the ranks share this address space).
  ship_spans_to_root(exchange, rank_start_ns);
  return out;
}

namespace {

DistributedPowerResult run_distributed(const core::MutationModel& model,
                                       unsigned rank_count,
                                       const DistributedPowerOptions& options,
                                       const FitnessBlockFn& fitness,
                                       const io::SolverCheckpoint* resume) {
  if (model.kind() == core::MutationKind::grouped) {
    throw UnsupportedModelError(model.kind());
  }
  const BlockLayout layout(model.nu(), rank_count);
  const auto& sites = model.site_factors();

  DistributedPowerResult root_result;
  auto body = [&](Exchange& exchange) {
    const std::vector<double> block = fitness(layout, exchange.rank());
    DistributedPowerResult res =
        distributed_power_rank(exchange, layout, sites, block, options, resume);
    if (exchange.rank() == 0) root_result = std::move(res);
  };
  if (options.exchange == ExchangeKind::process) {
    run_multiprocess(rank_count, body, options.exchange_timeout_ms);
  } else {
    LockstepGroup group(rank_count);
    group.run(body);
  }

  // Provenance: which transport and which rank-local kernel tier ran.
  auto& recorder = obs::metrics();
  recorder.set_info("dist.exchange", to_string(options.exchange));
  recorder.set_info("dist.sv_kernel", root_result.plan_kernel);
  recorder.set_value("dist.ranks", static_cast<double>(rank_count));
  recorder.set_value("dist.block_doubles",
                     static_cast<double>(layout.block_size()));
  recorder.set_value("dist.local_levels",
                     static_cast<double>(root_result.local_levels));
  recorder.set_value("dist.messages",
                     static_cast<double>(root_result.traffic.messages));
  recorder.set_value("dist.bytes_moved",
                     static_cast<double>(root_result.traffic.bytes_moved()));
  recorder.set_value("dist.overlap_ratio", root_result.traffic.overlap_ratio());
  return root_result;
}

}  // namespace

DistributedPowerResult distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const DistributedPowerOptions& options) {
  require(landscape.dimension() == model.dimension(),
          "distributed_power_iteration: dimension mismatch");
  const auto values = landscape.values();
  auto fitness = [values](const BlockLayout& layout, unsigned rank) {
    const auto block = values.subspan(layout.block_begin(rank),
                                      layout.block_size());
    return std::vector<double>(block.begin(), block.end());
  };
  return run_distributed(model, rank_count, options, fitness, nullptr);
}

DistributedPowerResult distributed_power_iteration_blocks(
    const core::MutationModel& model, unsigned rank_count,
    const FitnessBlockFn& fitness, const DistributedPowerOptions& options) {
  require(static_cast<bool>(fitness),
          "distributed_power_iteration_blocks: fitness source must be set");
  return run_distributed(model, rank_count, options, fitness, nullptr);
}

DistributedPowerResult resume_distributed_power_iteration(
    const core::MutationModel& model, const core::Landscape& landscape,
    unsigned rank_count, const io::SolverCheckpoint& checkpoint,
    const DistributedPowerOptions& options) {
  require(landscape.dimension() == model.dimension(),
          "resume_distributed_power_iteration: dimension mismatch");
  require(checkpoint.eigenvector.size() == model.dimension(),
          "resume_distributed_power_iteration: checkpoint dimension does not "
          "match the model");

  // Validate once, before any rank exists: wrong solver kind or a corrupt
  // shift schedule throws, a poisoned iterate returns without iterating
  // (exactly like the serial resume path).
  require(solvers::valid_shift_schedule(checkpoint.schedule),
          "resume_distributed_power_iteration: corrupt shift schedule state");
  solvers::IterationTrace trace;
  solvers::IterationResult probe;
  if (!solvers::restore_trace(checkpoint, io::SolverKind::power, trace, probe)) {
    DistributedPowerResult out;
    static_cast<solvers::IterationResult&>(out) = probe;
    out.eigenvalue = trace.eigenvalue;
    out.residual = trace.residual;
    out.iterations = trace.start_iteration;
    out.eigenvector = std::move(trace.iterate);
    out.rank_count = rank_count;
    return out;
  }

  const auto values = landscape.values();
  auto fitness = [values](const BlockLayout& layout, unsigned rank) {
    const auto block = values.subspan(layout.block_begin(rank),
                                      layout.block_size());
    return std::vector<double>(block.begin(), block.end());
  };
  return run_distributed(model, rank_count, options, fitness, &checkpoint);
}

}  // namespace qs::distributed
