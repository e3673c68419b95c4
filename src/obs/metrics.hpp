// Aggregate solver telemetry: one process-wide recorder that solvers and
// CLIs feed, exported as a JSON or CSV snapshot at the end of a run.
//
// Unlike the span layer (obs/trace.hpp) this is ALWAYS compiled: it sits
// off the hot path (a handful of writes per iteration at most, none
// allocating), so `--metrics=FILE` works in every build.  What changes
// with QS_ENABLE_TRACING is richness — the phase table and counter totals
// are aggregated from the span rings and are empty when tracing is
// compiled out; info/values/residual-tail are populated either way.
//
// Provenance keys (set by PlannedOperator when it resolves its plan):
//   simd_tier        — the span-kernel table the plan resolves to, for
//                      single vectors and panels alike (scalar/avx2/avx512)
//   plan.tile_log2   — autotuned or default blocked-plan tile size
//   plan.chunk_log2  — autotuned or default panel chunk size
// These pin down why two hosts produce different BENCH_fig2.json rows.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace qs::obs {

/// Wall/CPU aggregate of every span sharing a name, across threads.
struct MetricsPhase {
  std::string name;
  std::string category;
  std::uint64_t count = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// wall_seconds / run elapsed time.  Phases running on several threads
  /// at once can sum past 1.0 — that is parallelism, not an error.
  double share = 0.0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::pair<std::string, double>> values;
  std::vector<MetricsPhase> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<double> residual_tail;   ///< most recent residuals, oldest first
  std::uint64_t residual_count = 0;    ///< total recorded (>= tail size)
  std::vector<HistogramSummary> histograms;  ///< latency/ratio distributions
  bool tracing_compiled_in = false;
  std::uint64_t dropped_spans = 0;
};

/// Process-wide telemetry sink.  set_info/set_value are for cold call
/// sites (CLI setup, plan resolution); record_residual is cheap enough for
/// the per-iteration driver hook and never allocates.
class MetricsRecorder {
 public:
  static constexpr std::size_t kResidualTail = 128;

  void set_info(const std::string& key, const std::string& value);
  void set_value(const std::string& key, double value);
  void record_residual(double residual);
  void reset();

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, double>> values_;
  std::array<double, kResidualTail> residual_ring_{};
  std::atomic<std::uint64_t> residual_count_{0};
};

/// The process-wide recorder all layers feed.
MetricsRecorder& metrics();

/// Stable-schema JSON export.  schema_version 2: v1 plus a "histograms"
/// section (count/sum/max/p50/p90/p99 per named histogram).
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// Loads a write_metrics_json() file back into a snapshot.  Accepts both
/// schema v1 (no histograms — the field stays empty) and v2; phases,
/// counters, info, values, residuals and histogram summaries round-trip.
/// Returns false on malformed input or an unknown schema_version.
bool read_metrics_json(std::istream& in, MetricsSnapshot& out,
                       int* schema_version = nullptr);

/// Ragged CSV export: `kind,name,...` rows (info/value/counter/phase/
/// residual) for quick grep or spreadsheet import.
void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot);

/// Writes snapshot() of the global recorder to `path` as JSON (or CSV when
/// the path ends in ".csv").  Returns false if the file cannot be written.
bool write_metrics_file(const std::string& path);

}  // namespace qs::obs
