#include "distributed/distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "distributed/reduction.hpp"
#include "linalg/vector_ops.hpp"
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
// the reduction/gather tags live above any level index.
constexpr unsigned kTagStartNorm = 100;
constexpr unsigned kTagXX = 101;
constexpr unsigned kTagXY = 102;
constexpr unsigned kTagRes2 = 103;
constexpr unsigned kTagControl = 104;
constexpr unsigned kTagNorm = 105;
constexpr unsigned kTagSign = 106;
constexpr unsigned kTagFinalNorm = 107;
constexpr unsigned kTagGather = 108;
constexpr unsigned kTagStats = 109;
constexpr unsigned kTagSpanLens = 110;  ///< Packed span-buffer lengths.
constexpr unsigned kTagSpanShip = 111;  ///< Span buffers gathered to root.

/// Bit 32 of the per-check control word carries rank 0's wall-clock
/// checkpoint cadence; bits below sum the ranks' cancellation votes.
constexpr double kControlTimeBit = 4294967296.0;  // 2^32

const char* kind_name(core::MutationKind kind) {
  switch (kind) {
    case core::MutationKind::uniform: return "uniform";
    case core::MutationKind::per_site: return "per_site";
    case core::MutationKind::grouped: return "grouped";
  }
  return "unknown";
}

/// Cross-rank butterfly combine on one segment: `mine` and `theirs` hold the
/// same offsets of the two pair blocks; the lower rank's block is the "lo"
/// operand.  Runs the plan's sv microkernel when one resolved (the kernel
/// writes both halves — the scratch half is discarded), else the plain
/// non-FMA expression; both are bit-identical to the serial butterfly.
void combine_cross_segment(double* mine, double* theirs, bool is_low,
                           std::size_t count, transforms::Factor2 f,
                           const transforms::SvKernels* sv) {
  double* lo = is_low ? mine : theirs;
  double* hi = is_low ? theirs : mine;
  if (sv != nullptr) {
    sv->butterfly_span(lo, hi, count, f);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

/// One rank's y = W x: fitness scaling fused into the banded blocked
/// butterfly for the local levels, then one overlapped pairwise exchange
/// per cross-rank level.  `recv` is a block-sized scratch buffer.
void apply_w_rank(Exchange& exchange, const BlockLayout& layout,
                  std::span<const transforms::Factor2> sites,
                  std::span<const double> fitness_block,
                  const transforms::BlockedPlan& plan,
                  const transforms::SvKernels* sv, std::span<const double> x,
                  std::span<double> y, std::span<double> recv) {
  const unsigned rank = exchange.rank();
  const unsigned local_levels = log2_exact(layout.block_size());
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
    exchange.sendrecv_overlapped(
        partner, y, recv, k,
        [mine, theirs, is_low, f, sv](std::size_t begin, std::size_t end) {
          combine_cross_segment(mine + begin, theirs + begin, is_low,
                                end - begin, f, sv);
        });
    static obs::Histogram& exchange_hist = obs::histogram("dist.exchange");
    exchange_hist.record_ns(monotonic_ns() - exchange_start);
  }
}

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

DistributedVector::DistributedVector(const BlockLayout& layout)
    : layout_(&layout),
      blocks_(layout.rank_count(), std::vector<double>(layout.block_size(), 0.0)) {}

DistributedVector DistributedVector::scatter(const BlockLayout& layout,
                                             std::span<const double> global) {
  require(global.size() == layout.block_size() * layout.rank_count(),
          "DistributedVector::scatter: dimension mismatch");
  DistributedVector out(layout);
  for (unsigned rank = 0; rank < layout.rank_count(); ++rank) {
    const auto begin = global.begin() + static_cast<std::ptrdiff_t>(
                                            layout.block_begin(rank));
    std::copy(begin, begin + static_cast<std::ptrdiff_t>(layout.block_size()),
              out.blocks_[rank].begin());
  }
  return out;
}

std::vector<double> DistributedVector::gather() const {
  std::vector<double> global(layout_->block_size() * layout_->rank_count());
  for (unsigned rank = 0; rank < layout_->rank_count(); ++rank) {
    std::copy(blocks_[rank].begin(), blocks_[rank].end(),
              global.begin() +
                  static_cast<std::ptrdiff_t>(layout_->block_begin(rank)));
  }
  return global;
}

void distributed_apply_w(const core::MutationModel& model,
                         const core::Landscape& landscape, DistributedVector& v,
                         TrafficStats& stats, const transforms::BlockedPlan& plan) {
  const BlockLayout& layout = v.layout();
  require(model.nu() == layout.nu(), "distributed_apply_w: model nu mismatch");
  require(landscape.dimension() == sequence_count(layout.nu()),
          "distributed_apply_w: landscape dimension mismatch");
  if (model.kind() == core::MutationKind::grouped) {
    throw UnsupportedModelError(model.kind());
  }

  const auto& sites = model.site_factors();
  const std::size_t block = layout.block_size();
  const unsigned ranks = layout.rank_count();
  const unsigned local_levels = log2_exact(block);
  const auto f = landscape.values();
  const transforms::SvKernels* sv = transforms::resolve_sv_kernels(plan.sv_kernel);

  // Superstep 1 (fully local): fitness scaling fused into the banded
  // blocked butterfly over every level whose stride stays inside a block.
  QS_TRACE_SPAN("dist.local_band", distributed);
  for (unsigned rank = 0; rank < ranks; ++rank) {
    auto mine = v.block(rank);
    transforms::apply_blocked_butterfly_fused(
        mine, mine, std::span<const transforms::Factor2>(sites).first(local_levels),
        f.subspan(layout.block_begin(rank), block), {}, parallel::serial_engine(),
        plan);
  }

  // Supersteps 2..: one pairwise block exchange per cross-rank level.  The
  // lower rank of each pair holds the "lo" entries, its partner the "hi"
  // entries, at identical offsets within their blocks; both blocks live in
  // this address space, so the combine kernel writes both halves directly.
  for (unsigned k = local_levels; k < layout.nu(); ++k) {
    const std::size_t stride = std::size_t{1} << k;
    QS_TRACE_SPAN_ARG("dist.exchange", distributed, k);
    QS_TRACE_COUNTER("dist.exchange_messages", 2 * (ranks / 2));
    for (unsigned lo = 0; lo < ranks; ++lo) {
      const unsigned hi = layout.partner(lo, stride);
      if (hi < lo) continue;  // visit each pair once, from the lower rank
      // Simulated MPI_Sendrecv: both ranks ship their block to the partner.
      stats.messages += 2;
      stats.doubles_moved += 2 * block;
      combine_cross_segment(v.block(lo).data(), v.block(hi).data(), true, block,
                            sites[k], sv);
    }
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

  const transforms::SvKernels* sv =
      transforms::resolve_sv_kernels(options.plan.sv_kernel);
  // Block partials come from the same tree-ordered kernels the serial loop
  // runs; any tier gives the same bits, so autovec plans use the scalar one.
  const transforms::SvKernels& red = transforms::sv_kernels_or_scalar(sv);

  DistributedPowerResult out;
  out.rank_count = layout.rank_count();
  out.plan_kernel = transforms::resolved_sv_kernel_name(options.plan.sv_kernel);
  out.local_levels = log2_exact(block);

  // Replicated control plane: every rank runs its own IterationDriver on
  // identical allreduced values, so every verdict (convergence, stall,
  // guard, cancellation) is taken identically everywhere.  Non-root ranks
  // strip the I/O and observability hooks — those fire on rank 0 only —
  // but keep identical decision state.
  DistributedPowerOptions local = options;
  if (!root) {
    local.checkpoint_path.clear();
    local.checkpoint_sink = nullptr;
    local.on_residual = nullptr;
  }
  bool agreed_stop = false;
  const bool vote_stop = static_cast<bool>(options.should_stop);
  const bool control_word_needed =
      vote_stop || options.checkpoint_every_seconds > 0.0;
  if (vote_stop) {
    // The driver polls the *agreed* verdict, computed by the control-word
    // allreduce below before each observe; any rank's vote cancels all.
    local.should_stop = [&agreed_stop] { return agreed_stop; };
  }
  // Whether checkpoints are written at all — evaluated on the ORIGINAL
  // options, which every rank shares, so the gather rendezvous below is a
  // replicated decision even though only rank 0 writes.
  const bool checkpoint_configured =
      (options.checkpoint_every > 0 || options.checkpoint_every_seconds > 0.0) &&
      (options.checkpoint_sink || !options.checkpoint_path.empty());

  solvers::IterationDriver driver(local, io::SolverKind::power);

  std::vector<double> x(block);
  std::vector<double> y(block);
  std::vector<double> recv(block);
  std::vector<double> full;  // rank 0's gather target (checkpoints, result)
  if (root && (checkpoint_configured || options.gather_eigenvector)) {
    full.resize(block * static_cast<std::size_t>(layout.rank_count()));
  }
  auto full_span = [&]() {
    return root ? std::span<double>(full) : std::span<double>{};
  };

  solvers::IterationTrace trace;
  if (resume != nullptr) {
    // Scalars verbatim on every rank; the iterate slice taken locally (the
    // wrappers validated finiteness and solver kind before spawning ranks).
    require(resume->eigenvector.size() == block * layout.rank_count(),
            "distributed_power_rank: checkpoint dimension mismatch");
    trace.start_iteration = static_cast<unsigned>(resume->iteration);
    trace.eigenvalue = resume->eigenvalue;
    trace.residual = resume->residual;
    driver.restore(*resume);
    const double* src = resume->eigenvector.data() + layout.block_begin(rank);
    std::copy(src, src + block, x.begin());
  } else {
    // Cold start: the landscape block scaled by the reciprocal of the
    // global tree-ordered 1-norm — bit-identical to landscape_start.
    const double norm = exchange.allreduce_sum(
        red.tree_abs_sum(fitness_block.data(), block), kTagStartNorm);
    require(norm > 0.0, "distributed_power_iteration: landscape has zero 1-norm");
    const double inv = 1.0 / norm;
    for (std::size_t t = 0; t < block; ++t) x[t] = fitness_block[t] * inv;
  }
  out.eigenvalue = trace.eigenvalue;
  out.residual = trace.residual;
  out.iterations = trace.start_iteration;

  const double mu = options.shift;
  std::uint64_t last_checkpoint_ns = monotonic_ns();  // rank 0 time cadence
  bool agreed_time_due = false;

  // The loop below mirrors solvers::run_power_loop operation for operation:
  // the same fused passes A, B, C on the block, with each block partial
  // (a complete subtree of the serial tree) completed by a tree-ordered
  // allreduce, so every global quantity equals the serial facade's bits.
  for (unsigned it = trace.start_iteration + 1; it <= options.max_iterations;
       ++it) {
    QS_TRACE_SPAN_ARG("power.iteration", solver, it);
    apply_w_rank(exchange, layout, sites, fitness_block, options.plan, sv, x, y,
                 recv);
    out.iterations = it;

    double norm_local = 0.0;  // pass B's 1-norm partial of the shifted y
    if (driver.should_check(it, options.max_iterations)) {
      const transforms::TreeSums a = red.tree_dot2(x.data(), y.data(), block);
      const double xx = exchange.allreduce_sum(a.first, kTagXX);
      const double xy = exchange.allreduce_sum(a.second, kTagXY);
      const double lambda = xy / xx;
      const transforms::TreeSums b = red.tree_residual_shift_norm1(
          x.data(), y.data(), block, lambda, mu, true);
      norm_local = b.second;
      const double res2 = exchange.allreduce_sum(b.first, kTagRes2);
      if (!driver.guard({lambda, res2}, out)) break;
      out.eigenvalue = lambda;
      out.residual =
          std::sqrt(res2) / std::max(std::abs(lambda) * std::sqrt(xx), 1e-300);

      agreed_time_due = false;
      if (control_word_needed) {
        double word = 0.0;
        if (vote_stop && options.should_stop()) word += 1.0;
        if (root && options.checkpoint_every_seconds > 0.0 &&
            static_cast<double>(monotonic_ns() - last_checkpoint_ns) * 1e-9 >=
                options.checkpoint_every_seconds) {
          word += kControlTimeBit;
        }
        const double agreed = exchange.allreduce_sum(word, kTagControl);
        agreed_stop = std::fmod(agreed, kControlTimeBit) != 0.0;
        agreed_time_due = agreed >= kControlTimeBit;
      }

      const solvers::IterationDriver::Verdict verdict =
          driver.observe(it, out.residual, out);
      if (verdict != solvers::IterationDriver::Verdict::proceed) {
        if (verdict == solvers::IterationDriver::Verdict::cancelled &&
            checkpoint_configured) {
          // Flush the finite pre-update iterate (the result of iteration
          // it-1), gathered to rank 0 — same content the serial loop
          // writes, so a restart resumes exactly this aborted iteration.
          exchange.gather_to_root(x, full_span(), kTagGather);
          if (root) driver.write_checkpoint(it - 1, out, full, it - 1);
        }
        break;
      }
    } else {
      norm_local = red.tree_residual_shift_norm1(x.data(), y.data(), block, 0.0,
                                                 mu, false)
                       .second;
    }
    const double norm = exchange.allreduce_sum(norm_local, kTagNorm);
    if (!driver.guard({norm}, out)) break;
    require(norm > 0.0, "distributed_power_iteration: iterate collapsed to zero");
    const double inv = 1.0 / norm;
    for (std::size_t t = 0; t < block; ++t) x[t] = y[t] * inv;

    const bool iter_due = options.checkpoint_every > 0 &&
                          it % options.checkpoint_every == 0;
    if (checkpoint_configured && (iter_due || agreed_time_due)) {
      // All ranks rendezvous for the gather (the decision is replicated:
      // iteration cadence is deterministic, time cadence was agreed in the
      // control word); only rank 0 writes.
      exchange.gather_to_root(x, full_span(), kTagGather);
      if (root) {
        driver.write_checkpoint(it, out, full, it);
        last_checkpoint_ns = monotonic_ns();
      }
      agreed_time_due = false;
    }
  }

  if (out.failure == solvers::SolverFailure::none) {
    // Perron orientation, then the final normalisation of the serial loop:
    // both sums in tree order, the scaling by the reciprocal.  Gathered or
    // not, the result is bit-identical to the facade's.
    const double s =
        exchange.allreduce_sum(red.tree_sum(x.data(), block), kTagSign);
    if (s < 0.0) linalg::scale(x, -1.0);
    if (options.gather_eigenvector) {
      exchange.gather_to_root(x, full_span(), kTagGather);
      if (root) {
        out.eigenvector = std::move(full);
        const double norm1 =
            red.tree_abs_sum(out.eigenvector.data(), out.eigenvector.size());
        linalg::scale(out.eigenvector, 1.0 / norm1);
      }
    } else {
      // Capacity mode: no rank materialises the full vector; each block is
      // scaled by the same global tree 1-norm, completed by an allreduce.
      const double norm1 = exchange.allreduce_sum(
          red.tree_abs_sum(x.data(), block), kTagFinalNorm);
      linalg::scale(x, 1.0 / norm1);
      out.eigenvector.assign(x.begin(), x.end());
    }
  } else if (options.gather_eigenvector) {
    // Failed or cancelled: gather the last iterate anyway (post-mortem
    // parity with the serial loop, which leaves it in place).
    exchange.gather_to_root(x, full_span(), kTagGather);
    if (root) out.eigenvector = std::move(full);
  }

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

  // Validate once, before any rank exists: wrong solver kind throws, a
  // poisoned iterate returns without iterating (exactly like the serial
  // resume path).
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
