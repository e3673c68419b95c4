// Solver-side workloads: solve_serial runs the facade's shifted power
// iteration (the paper's Pi(Fmmp)); solve_dist runs the same scenarios
// through distributed_power_iteration over two forked ranks.  Plus the
// traced run's kernel probes.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "analysis/error_classes.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/reduction.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

// nu = 18 keeps the working set (2 MiB per vector) inside the range where
// repeated runs agree; it has the same two-band plan as nu = 20-22.
constexpr unsigned kNu = 18;
constexpr double kP = 0.01;
constexpr double kTolerance = 1e-10;
constexpr std::size_t kPool = 4;
constexpr unsigned kRanks = 2;

/// The scenarios both solve workloads cycle through: four random (Eq. 13)
/// landscapes drawn from the seed, one uniform mutation model.
struct Pool {
  qs::core::MutationModel model = qs::core::MutationModel::uniform(kNu, kP);
  std::vector<qs::core::Landscape> landscapes;

  explicit Pool(std::uint64_t seed) {
    Inputs inputs(seed, 5);
    for (std::size_t k = 0; k < kPool; ++k) {
      landscapes.push_back(qs::core::Landscape::random(kNu, 5.0, 1.0, inputs.next_u64()));
    }
  }
};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

double class_sum(const std::vector<double>& gamma) {
  double s = 0.0;
  for (double g : gamma) s += g;
  return s;
}

/// Records the wall interval of every mat-vec of a solve (installed through
/// SolveOptions::wrap_operator).
struct MatvecLog {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
};

class TimedOperator final : public qs::core::LinearOperator {
 public:
  TimedOperator(std::unique_ptr<qs::core::LinearOperator> inner, MatvecLog& log)
      : inner_(std::move(inner)), log_(log) {}

  qs::seq_t dimension() const override { return inner_->dimension(); }
  std::string_view name() const override { return inner_->name(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    const std::uint64_t t0 = now_ns();
    inner_->apply(x, y);
    log_.calls.emplace_back(t0, now_ns());
  }

 private:
  std::unique_ptr<qs::core::LinearOperator> inner_;
  MatvecLog& log_;
};

/// First answer seen per pool landscape: every later solve of the same
/// landscape must reproduce its eigenvalue bits and iteration count.
struct Reference {
  bool set = false;
  std::uint64_t eigenvalue_bits = 0;
  unsigned iterations = 0;
};

void check_repeat(Reference& ref, double eigenvalue, unsigned iterations, OpCheck& check) {
  if (!ref.set) {
    ref = {true, bits(eigenvalue), iterations};
    return;
  }
  check.require(ref.eigenvalue_bits == bits(eigenvalue) && ref.iterations == iterations,
                "repeated solve drifted from the first solve of its landscape");
}

qs::solvers::QuasispeciesResult serial_solve(const Pool& pool, std::size_t k,
                                             MatvecLog* log,
                                             std::vector<std::uint64_t>* residual_ns) {
  qs::solvers::SolveOptions options;
  options.tolerance = kTolerance;
  if (log != nullptr) {
    options.wrap_operator = [log](std::unique_ptr<qs::core::LinearOperator> inner) {
      return std::make_unique<TimedOperator>(std::move(inner), *log);
    };
  }
  if (residual_ns != nullptr) {
    options.on_residual = [residual_ns](unsigned, double) {
      residual_ns->push_back(now_ns());
    };
  }
  return qs::solvers::solve(pool.model, pool.landscapes[k], options);
}

qs::distributed::DistributedPowerResult dist_solve(
    const Pool& pool, std::size_t k, std::vector<std::uint64_t>* residual_ns) {
  qs::distributed::DistributedPowerOptions options;
  options.tolerance = kTolerance;
  options.shift = qs::core::conservative_shift(pool.model, pool.landscapes[k]);
  options.exchange = qs::distributed::ExchangeKind::process;
  if (residual_ns != nullptr) {
    options.on_residual = [residual_ns](unsigned, double) {
      residual_ns->push_back(now_ns());
    };
  }
  return qs::distributed::distributed_power_iteration(pool.model, pool.landscapes[k],
                                                      kRanks, options);
}

/// The serial facade in the configuration the distributed equivalence
/// contract names (docs/distributed.md): tree-ordered reductions and the
/// tree-normalised landscape start.  A distributed solve must match it bit
/// for bit in eigenvalue and iteration count.
qs::solvers::QuasispeciesResult contract_solve(const Pool& pool, std::size_t k) {
  qs::io::SolverCheckpoint start;
  start.iteration = 0;
  start.solver_kind = qs::io::SolverKind::power;
  start.best_residual = std::numeric_limits<double>::infinity();
  start.window_start_best = std::numeric_limits<double>::infinity();
  start.eigenvector = qs::distributed::tree_landscape_start(pool.landscapes[k]);
  qs::solvers::SolveOptions options;
  options.tolerance = kTolerance;
  options.engine = &qs::distributed::tree_engine();
  options.resume = &start;
  return qs::solvers::solve(pool.model, pool.landscapes[k], options);
}

/// Equivalence gate for one pool landscape, outside any timed loop: the
/// distributed answer is bit-identical to the contract facade in eigenvalue
/// and iteration count, and agrees with the production serial solve in
/// iteration count and to 1e-12 in eigenvalue (its reductions run in a
/// different order).
void check_equivalence(const Pool& pool, std::size_t k, Gate& gate) {
  const auto dist = dist_solve(pool, k, nullptr);
  const auto contract = contract_solve(pool, k);
  const auto serial = serial_solve(pool, k, nullptr, nullptr);
  OpCheck check;
  check.require(dist.converged, "distributed solve did not converge");
  check.require(bits(contract.eigenvalue) == bits(dist.eigenvalue) &&
                    contract.iterations == dist.iterations,
                "distributed solve is not bit-identical to the serial facade contract");
  check.require(serial.iterations == dist.iterations &&
                    std::abs(serial.eigenvalue - dist.eigenvalue) <= 1e-12 * dist.eigenvalue,
                "distributed solve disagrees with the production serial solve");
  gate.record(check.violations());
}

}  // namespace

// ---------------------------------------------------------------------------
// solve_serial: one complete facade solve per operation, cycling through
// the pool.  The only workload that runs the facade loop, IterationDriver
// and the single-vector kernels (the service solves through the panel path
// even at m = 1).
// ---------------------------------------------------------------------------

void solve_serial(const RunSpec& spec, Gate& gate, Outcome& out) {
  const PinnedThread pin(benchmark_cpu());
  std::unique_ptr<Pool> pool;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<Pool>(spec.seed);
    const auto warm = serial_solve(*pool, 0, nullptr, nullptr);
    out.setup_s.add(now_s() - t0);
    gate.check(warm.converged, "solve_serial warm-up did not converge");
  }

  std::vector<Reference> refs(kPool);
  Samples apply_ms, other_ms, pre_ms, post_ms;
  double iterations = 0.0, matvecs = 0.0, latency_ms = 0.0, unattributed_ms = 0.0;
  std::uint64_t op = 0;
  MatvecLog log;
  std::vector<std::uint64_t> residual_ns;
  const double start = now_s();
  while (now_s() - start < spec.seconds) {
    const std::size_t k = op++ % kPool;
    log.calls.clear();
    residual_ns.clear();
    const std::uint64_t t0 = now_ns();
    const auto r = serial_solve(*pool, k, spec.traced ? &log : nullptr,
                                spec.traced ? &residual_ns : nullptr);
    const std::uint64_t t1 = now_ns();
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    out.latency_ms.add(ms);
    OpCheck check;
    check.require(r.converged && r.failure == qs::solvers::SolverFailure::none,
                  "solve_serial did not converge");
    check.require(r.residual <= kTolerance, "solve_serial residual above tolerance");
    check.require(std::abs(class_sum(r.class_concentrations) - 1.0) <= sum_tolerance(kNu),
                  "solve_serial class concentrations do not sum to 1");
    check_repeat(refs[k], r.eigenvalue, r.iterations, check);
    gate.record(check.violations());
    iterations += r.iterations;

    if (spec.traced && !log.calls.empty() && !residual_ns.empty()) {
      double matvec_ms = 0.0;
      for (const auto& [a, b] : log.calls) {
        const double d = static_cast<double>(b - a) * 1e-6;
        apply_ms.add(d);
        matvec_ms += d;
      }
      matvecs += static_cast<double>(log.calls.size());
      const std::uint64_t loop_start = log.calls.front().first;
      const double pre = static_cast<double>(loop_start - t0) * 1e-6;
      const double loop = static_cast<double>(residual_ns.back() - loop_start) * 1e-6;
      const double post = static_cast<double>(t1 - residual_ns.back()) * 1e-6;
      pre_ms.add(pre);
      post_ms.add(post);
      other_ms.add((loop - matvec_ms) / std::max(1u, r.iterations));
      latency_ms += ms;
      unattributed_ms += loop - matvec_ms;
    }
  }
  out.elapsed_s = now_s() - start;
  out.ops = out.latency_ms.size();
  for (std::size_t k = 0; k < kPool; ++k) check_equivalence(*pool, k, gate);

  const double n = static_cast<double>(out.latency_ms.size());
  out.counts.add("solvers.iterations", iterations / std::max(1.0, n), "count");
  if (spec.traced) {
    const double gbps = fmmp_bytes(kNu, 1) / (apply_ms.median() * 1e-3) * 1e-9;
    out.layers.add("core.fmmp_apply_ms", apply_ms.median(), "ms");
    out.layers.add("core.fmmp_gbps", gbps, "GB/s");
    out.layers.add("core.fmmp_roofline_frac", gbps / spec.copy_gbps, "ratio");
    out.layers.add("core.fmmp_bands", static_cast<double>(fmmp_bands(kNu)), "count");
    out.layers.add("solvers.iterations", iterations / std::max(1.0, n), "count");
    out.layers.add("solvers.matvecs", matvecs / std::max(1.0, n), "count");
    out.layers.add("solvers.other_ms_per_iter", other_ms.median(), "ms");
    out.layers.add("solvers.pre_ms", pre_ms.median(), "ms");
    out.layers.add("solvers.post_ms", post_ms.median(), "ms");
    // The loop time outside the mat-vec (reductions, normalisation, IterationDriver)
    // is the one part no layer row names yet.
    out.unaccounted_share = latency_ms > 0.0 ? unattributed_ms / latency_ms : 0.0;
  }
}

// ---------------------------------------------------------------------------
// solve_dist: the same scenarios over R = 2 forked ranks, in traced runs
// only: on the shared four-core reference host its run-to-run spread (0.09
// on the p50, 0.27 on the p90) is too wide to gate.  R = 4 fills every core
// and its solve time turned bimodal, so it is not used at all.
// ---------------------------------------------------------------------------

void solve_dist(const RunSpec& spec, Gate& gate, Outcome& out) {
  std::unique_ptr<Pool> pool;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<Pool>(spec.seed);
    const auto warm = dist_solve(*pool, 0, nullptr);
    out.setup_s.add(now_s() - t0);
    gate.check(warm.converged, "solve_dist warm-up did not converge");
  }

  std::vector<Reference> refs(kPool);
  Samples exchange_ms, local_ms;
  double iterations = 0.0, bytes_per_iter = 0.0, messages = 0.0, allreduces = 0.0;
  double overlap = 0.0, latency_ms = 0.0, unattributed_ms = 0.0;
  bool traffic_set = false;
  qs::distributed::TrafficStats first_traffic;
  std::uint64_t op = 0;
  std::vector<std::uint64_t> residual_ns;
  const double start = now_s();
  while (now_s() - start < spec.seconds) {
    const std::size_t k = op++ % kPool;
    residual_ns.clear();
    const std::uint64_t t0 = now_ns();
    const auto r = dist_solve(*pool, k, spec.traced ? &residual_ns : nullptr);
    const std::uint64_t t1 = now_ns();
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    out.latency_ms.add(ms);
    OpCheck check;
    check.require(r.converged && r.failure == qs::solvers::SolverFailure::none,
                  "solve_dist did not converge");
    check.require(r.residual <= kTolerance, "solve_dist residual above tolerance");
    check.require(
        std::abs(class_sum(qs::analysis::class_concentrations(kNu, r.eigenvector)) - 1.0) <=
            sum_tolerance(kNu),
        "solve_dist class concentrations do not sum to 1");
    check_repeat(refs[k], r.eigenvalue, r.iterations, check);
    if (!traffic_set) {
      first_traffic = r.traffic;
      traffic_set = true;
    }
    check.require(r.traffic.messages == first_traffic.messages &&
                      r.traffic.doubles_moved == first_traffic.doubles_moved &&
                      r.traffic.allreduce_calls == first_traffic.allreduce_calls,
                  "solve_dist traffic counts drifted between solves");
    gate.record(check.violations());

    const double iters = std::max(1u, r.iterations);
    iterations += r.iterations;
    bytes_per_iter += static_cast<double>(r.traffic.bytes_moved()) / iters;
    messages += static_cast<double>(r.traffic.messages);
    allreduces += static_cast<double>(r.traffic.allreduce_calls);
    if (spec.traced && residual_ns.size() >= 2) {
      const double loop_per_iter =
          static_cast<double>(residual_ns.back() - residual_ns.front()) * 1e-6 /
          static_cast<double>(residual_ns.size() - 1);
      const double exchange =
          static_cast<double>(r.traffic.exchange_ns) * 1e-6 / kRanks / iters;
      exchange_ms.add(exchange);
      local_ms.add(loop_per_iter - exchange);
      overlap += r.traffic.overlap_ratio();
      latency_ms += ms;
      unattributed_ms += (loop_per_iter - exchange) * iters;
    }
  }
  out.elapsed_s = now_s() - start;
  out.ops = out.latency_ms.size();

  for (std::size_t k = 0; k < kPool; ++k) check_equivalence(*pool, k, gate);

  const double n = static_cast<double>(out.latency_ms.size());
  const auto per_op = [n](double total) { return total / std::max(1.0, n); };
  out.counts.add("distributed.iterations", per_op(iterations), "count");
  out.counts.add("distributed.bytes_per_iter", per_op(bytes_per_iter), "B");
  out.counts.add("distributed.messages", per_op(messages), "count");
  out.counts.add("distributed.allreduces", per_op(allreduces), "count");
  if (spec.traced) {
    out.layers.add("distributed.exchange_ms_per_iter", exchange_ms.median(), "ms");
    out.layers.add("distributed.local_ms_per_iter", local_ms.median(), "ms");
    out.layers.add("distributed.overlap_ratio", per_op(overlap), "ratio");
    out.layers.add("distributed.bytes_per_iter", per_op(bytes_per_iter), "B");
    out.layers.add("distributed.messages", per_op(messages), "count");
    out.layers.add("distributed.allreduces", per_op(allreduces), "count");
    // Rank-local compute is a remainder (loop minus exchange): the
    // benchmark cannot time it from outside the forked ranks.
    out.unaccounted_share = latency_ms > 0.0 ? unattributed_ms / latency_ms : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Kernel probes (traced runs only).
// ---------------------------------------------------------------------------

namespace {

/// Median wall time (ms) of `reps` applications of `fn` after one warm-up.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  fn();
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    s.add(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return s.median();
}

void single_vector_probe(unsigned nu, std::uint64_t seed, int reps, Report& layers) {
  const auto model = qs::core::MutationModel::uniform(nu, kP);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, seed);
  const qs::core::PlannedOperator op(model, landscape);
  std::vector<double> x(std::size_t{1} << nu, 1.0 / static_cast<double>(std::size_t{1} << nu));
  std::vector<double> y(x.size());
  const double ms = median_ms(reps, [&] { op.apply(x, y); });
  const double gbps = fmmp_bytes(nu, 1) / (ms * 1e-3) * 1e-9;
  const double ceiling = copy_gbps(x.size() * sizeof(double), 20);
  const std::string prefix = "roofline.sv_nu" + std::to_string(nu);
  layers.add(prefix + "_ms", ms, "ms");
  layers.add(prefix + "_gbps", gbps, "GB/s");
  layers.add(prefix + "_frac", gbps / ceiling, "ratio");
  layers.add("host.copy_gbps.nu" + std::to_string(nu), ceiling, "GB/s");
}

}  // namespace

void kernel_probes(std::uint64_t seed, Report& layers) {
  const PinnedThread pin(benchmark_cpu());
  Inputs inputs(seed, 6);
  {
    constexpr unsigned nu = 16;
    constexpr std::size_t m = 8;
    const auto model = qs::core::MutationModel::uniform(nu, kP);
    const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, inputs.next_u64());
    const qs::core::PlannedOperator op(model, landscape);
    std::vector<double> x((std::size_t{1} << nu) * m, 1.0 / 65536.0);
    std::vector<double> y(x.size());
    const double ms = median_ms(21, [&] { op.apply_panel(x, y, m); });
    const double gbps = fmmp_bytes(nu, m) / (ms * 1e-3) * 1e-9;
    layers.add("transforms.panel_apply_ms", ms, "ms");
    layers.add("transforms.panel_gbps", gbps, "GB/s");
    layers.add("transforms.panel_roofline_frac",
               gbps / copy_gbps(x.size() * sizeof(double), 20), "ratio");
  }
  single_vector_probe(20, inputs.next_u64(), 11, layers);
  single_vector_probe(22, inputs.next_u64(), 5, layers);
}

}  // namespace ledger
