// e2e_ledger: the repository's end-to-end, layer-by-layer benchmark.
//
//   e2e_ledger --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 runs one workload untraced and reports its end-to-end metrics.
// --trace 1 runs every workload twice, untraced then traced, for an equal
// share of S each (the named workload first), and reports the per-layer
// rows, the tracing overhead and the unaccounted share of each workload,
// and the kernel roofline probes.  Every operation's answer is checked; the
// last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 1 when any check failed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace ledger {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"serve_stream", serve_stream, std::size_t{8} << 16},  // nu = 16 vector
      {"serve_hit", serve_hit, std::size_t{8} << 16},
      {"study_batch8", study_batch8, (std::size_t{8} << 16) * 8},  // m = 8 panel
      {"solve_serial", solve_serial, std::size_t{8} << 18},        // nu = 18 vector
      {"solve_dist", solve_dist, std::size_t{8} << 17},           // one rank's block
  };
  return all;
}

}  // namespace ledger

namespace {

using namespace ledger;

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_ledger: %s\n"
               "usage: e2e_ledger --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

const Workload* find(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Operations at or above the p90 (the tail the percentile rests on).
std::size_t tail_count(std::size_t n) {
  return n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
}

void print_counts(const char* name, const Outcome& out) {
  std::printf("exact counts (%s):\n", name);
  out.counts.print_table();
}

Report end_to_end(const Workload& w, const RunSpec& spec, Gate& gate) {
  Outcome out;
  w.run(spec, gate, out);
  Report report;
  report.add("ops_per_s", static_cast<double>(out.ops) / out.elapsed_s, "1/s");
  report.add("latency_p50_ms", out.latency_ms.median(), "ms");
  report.add("latency_p90_ms", out.latency_ms.quantile(0.9), "ms");
  report.add("setup_s", out.setup_s.median(), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("workload %s seed %llu: %llu ops in %.3f s, %zu latency samples "
              "(%zu beyond p90), %d set-ups\n",
              w.name, static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(out.ops), out.elapsed_s,
              out.latency_ms.size(), tail_count(out.latency_ms.size()), spec.setup_reps);
  print_counts(w.name, out);
  return report;
}

Report per_layer(const Workload& first, const RunSpec& spec, Gate& gate) {
  std::vector<const Workload*> order = {&first};
  for (const Workload& w : workloads()) {
    if (&w != &first) order.push_back(&w);
  }
  const double slice = std::max(0.5, spec.seconds / (2.0 * static_cast<double>(order.size())));
  Report report;
  for (const Workload* w : order) {
    RunSpec plain = spec;
    plain.seconds = slice;
    plain.traced = false;
    plain.setup_reps = 1;
    Outcome untraced;
    w->run(plain, gate, untraced);

    RunSpec traced = plain;
    traced.traced = true;
    {
      const PinnedThread pin(benchmark_cpu());  // where the workload runs
      traced.copy_gbps = copy_gbps(w->footprint_bytes, 20);
    }
    Outcome out;
    w->run(traced, gate, out);
    print_counts(w->name, out);

    const std::string suffix = std::string(".") + w->name;
    report.add("host.copy_gbps" + suffix, traced.copy_gbps, "GB/s");
    report.add("trace.overhead_share" + suffix,
               out.latency_ms.median() / untraced.latency_ms.median() - 1.0, "ratio");
    report.add("unaccounted_share" + suffix, out.unaccounted_share, "ratio");
    out.layers.append_to(report);
  }
  kernel_probes(spec.seed, report);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  // Make peak_rss_mb a property of the program, not of allocator timing:
  // with per-thread arenas the daemon's short-lived threads left it between
  // 8.1 and 9.6 MiB from run to run of serve_hit, and with glibc's sliding
  // mmap threshold study_batch8 settled at 28.9 or 32.9 MiB depending on
  // which thread freed a panel first.  One arena and a fixed threshold
  // (every block of 256 KiB or more is mapped and unmapped on its own)
  // keep it within 1%.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::string workload;
  RunSpec spec;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      spec.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && spec.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = std::string(value) == "0" ? 0 : std::string(value) == "1" ? 1 : -1;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace < 0) {
    return usage("--seed, --seconds and --trace 0|1 are required");
  }

  Gate gate;
  const Report report = trace == 0 ? end_to_end(*w, spec, gate) : per_layer(*w, spec, gate);
  std::printf("metrics (%s):\n", trace == 0 ? "end to end" : "per layer");
  report.print_table();
  std::printf("error_rate %.6g (%llu failed of %llu checked operations)\n",
              gate.attempted() ? static_cast<double>(gate.failed()) /
                                     static_cast<double>(gate.attempted())
                               : 0.0,
              static_cast<unsigned long long>(gate.failed()),
              static_cast<unsigned long long>(gate.attempted()));
  const bool correct = gate.failed() == 0 && gate.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()), report.json_metrics().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
