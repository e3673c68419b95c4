// The ledger's workloads.  Each one sets itself up `setup_reps` times
// (reporting every set-up time), warms up, runs a closed loop of operations
// for `seconds`, and then verifies its answers; every checked operation goes
// through the shared Gate.  A traced run additionally times calls into each
// layer from the benchmark's side of the program's public seams and adds
// the per-layer rows to `layers`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace ledger {

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int setup_reps = 5;
  double copy_gbps = 0.0;  ///< Copy ceiling at the workload's footprint (traced).
};

struct Outcome {
  LatencyLog latency_ms;    ///< One sample per timed operation the latency
                            ///< percentiles cover.
  std::uint64_t ops = 0;    ///< Timed operations completed (ops_per_s).
  double elapsed_s = 0.0;   ///< Wall time of the timed loop.
  Samples setup_s;          ///< One sample per set-up repetition.
  Report counts;            ///< Counts that must repeat exactly for a seed.
  Report layers;            ///< Per-layer rows (traced runs only).
  double unaccounted_share = 0.0;  ///< Traced latency no layer row covers.
};

using WorkloadFn = void (*)(const RunSpec&, Gate&, Outcome&);

struct Workload {
  const char* name;
  WorkloadFn run;
  std::size_t footprint_bytes;  ///< Largest vector or panel its ops stream.
};

void serve_stream(const RunSpec& spec, Gate& gate, Outcome& out);
void serve_hit(const RunSpec& spec, Gate& gate, Outcome& out);
void study_batch8(const RunSpec& spec, Gate& gate, Outcome& out);
void solve_serial(const RunSpec& spec, Gate& gate, Outcome& out);
void solve_dist(const RunSpec& spec, Gate& gate, Outcome& out);

/// Every workload, in the order traced runs measure them.
const std::vector<Workload>& workloads();

/// Kernel probes of a traced run: the m = 8 panel product at nu = 16 and
/// the single-vector product at nu = 20 and 22 against the copy ceiling
/// measured at the same footprint.  Ungated.
void kernel_probes(std::uint64_t seed, Report& layers);

}  // namespace ledger
