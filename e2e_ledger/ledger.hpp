// Shared pieces of the end-to-end ledger benchmark: sample statistics, the
// correctness gate, the metric report, and the host measurements (peak RSS,
// STREAM-style copy bandwidth, computed Fmmp bytes) every workload uses.
#pragma once

#include <sched.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace ledger {

/// Steady-clock seconds / nanoseconds (one clock for every interval the
/// benchmark times; the service stamps its telemetry with the same clock).
double now_s();
std::uint64_t now_ns();

/// A bag of samples with type-7 (linear interpolation) quantiles, for the
/// traced run's per-layer rows.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Latencies of a timed loop in fixed memory, so the benchmark's own
/// bookkeeping does not move peak_rss_mb with the operation count:
/// log-spaced bins 0.05% wide from 100 ns to 100 s.  Quantiles interpolate
/// by rank inside a bin, so they are exact to within 0.05%.
class LatencyLog {
 public:
  LatencyLog();
  void add(double ms);
  void clear();
  std::uint64_t size() const { return count_; }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<std::uint32_t> bins_;
  std::uint64_t count_ = 0;
};

/// Correctness gate: every operation the benchmark checks is attempted once
/// and failed at most once, whatever number of checks it breaks.  The first
/// few violations are printed to stderr.
class Gate {
 public:
  /// Records one operation; `violations` empty means it passed.
  void record(const std::vector<std::string>& violations);
  /// Convenience for an operation with a single condition.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Collects the checks of one operation for Gate::record.
class OpCheck {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) violations_.push_back(what);
  }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::vector<std::string> violations_;
};

/// Tolerance on quantities that are exactly 1 (or c) in exact arithmetic but
/// are computed as a sum over the 2^nu entries of a 1-norm normalised
/// vector: the class concentrations' total and a flat landscape's lambda / c.
/// It is the larger of 1e-12 and 2^nu unit roundoffs, the first-order
/// forward error bound of recursive summation of 2^nu terms.
double sum_tolerance(unsigned nu);

/// Reply checks shared by the service workloads: ok status, residual within
/// the request's tolerance, class concentrations of length nu + 1 summing to
/// one within sum_tolerance(nu), and lambda = c within the same relative
/// tolerance for flat landscapes (W = cQ with Q column-stochastic).
void check_reply(const qs::service::SolveRequest& request,
                 const qs::service::SolveReply& reply, OpCheck& check);

/// True when two replies carry bit-identical answers (eigenvalue, residual,
/// iteration count, every class concentration).
bool same_answer(const qs::service::SolveReply& a, const qs::service::SolveReply& b);

/// Ordered metric table: printed one per line, then as the JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void append_to(Report& other) const;
  void print_table() const;
  std::string json_metrics() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Pins the calling thread, and every thread it starts while this object
/// lives, to one CPU (a negative cpu leaves the mask alone); restores the
/// thread's previous mask on destruction.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu);
  ~PinnedThread();
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// The CPU every gated workload runs on: the last one the process may use.
/// Left to the scheduler, threads that hand work to each other, or a solver
/// thread migrating between vCPUs that the host loads differently, decided
/// whole runs on the four-core reference host: unpinned, the serve_hit p50
/// moved between 27 and 68 us and the serve_stream p50 between 5.1 and
/// 7.3 ms from run to run.
int benchmark_cpu();

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// STREAM-style copy bandwidth in GB/s (10^9 bytes per second, read + write
/// counted) between two buffers of `bytes` each: median of `reps` timed
/// copies after one untimed warm-up.
double copy_gbps(std::size_t bytes, int reps);

/// Computed bytes one banded Fmmp application moves for a 2^nu vector of m
/// columns under the default plan: every band streams the vector once in
/// and once out, bands x 2 x 8 N m.  Computed from
/// transforms::blocked_band_boundaries, not measured; cache misses beyond
/// one pass per band are ignored.
double fmmp_bytes(unsigned nu, std::size_t m);

/// Number of bands the default plan splits nu levels into.
std::size_t fmmp_bands(unsigned nu);

/// Deterministic input stream for one workload: every generated input comes
/// from here, seeded by --seed and a per-workload salt.
class Inputs {
 public:
  Inputs(std::uint64_t seed, std::uint64_t salt);
  double uniform(double lo, double hi);
  std::uint64_t next_u64() { return rng_(); }
  std::size_t index(std::size_t n);

 private:
  std::mt19937_64 rng_;
};

/// The service scenario vocabulary: miss number j cycles nu through
/// 12, 14, 16 and the landscape kind through all four kinds (a 27-long
/// cycle), with fresh random parameters every time.
qs::service::SolveRequest service_scenario(Inputs& inputs, std::uint64_t j);
inline constexpr std::uint64_t kScenarioCycle = 27;

}  // namespace ledger
