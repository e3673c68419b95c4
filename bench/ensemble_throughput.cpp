// Replica-ensemble throughput: panel-batched vs sequential expected-offspring
// products (extension bench; no counterpart figure in the paper).
//
// One Wright-Fisher generation of R replicas spends its flops in R banded
// mutation products.  Run sequentially, each product streams the whole 2^nu
// vector from DRAM; batched through the panel Fmmp path, m replicas share
// every sweep.  This bench drives qs::stochastic::ReplicaEnsemble both ways
// on every backend and reports the per-replica-generation time of the
// mutation phase — the phase the batching accelerates — plus one full
// generation (mutation + multinomial resampling) for context at a smaller
// size, where sampling does not drown the signal.
//
// Size caps (defaults; override with QS_BENCH_MAX_NU): the throughput
// section runs at nu = 22 with R = 8 replicas (QS_BENCH_ENSEMBLE_REPLICAS),
// ~0.8 GB of working set; the full-generation context runs at
// min(nu, 16).
//
// Besides the human-readable table + CSV, the measurement set is written as
// machine-readable JSON to BENCH_ensemble.json (override the path with
// QS_BENCH_ENSEMBLE_JSON).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "parallel/engine.hpp"
#include "stochastic/ensemble.hpp"
#include "support/table.hpp"

namespace {

struct BackendRow {
  std::string name;
  unsigned concurrency = 0;
  double batched_s = 0.0;     // expected phase, all R replicas, panel path
  double sequential_s = 0.0;  // expected phase, all R replicas, single-vector
  double speedup = 0.0;       // sequential_s / batched_s
  double step_s = 0.0;        // one full batched generation at the context size
};

void write_json(const std::string& path, unsigned nu, unsigned context_nu,
                const qs::stochastic::EnsembleOptions& options,
                const std::vector<BackendRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not open " << path << " for writing\n";
    return;
  }
  out.precision(9);
  out << "{\n  \"bench\": \"ensemble\",\n  \"nu\": " << nu
      << ",\n  \"context_nu\": " << context_nu
      << ",\n  \"replicas\": " << options.replicas
      << ",\n  \"panel_width\": " << options.panel_width
      << ",\n  \"population\": " << options.population_size
      << ",\n  \"backends\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BackendRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"concurrency\": "
        << r.concurrency << ", \"expected_batched_s\": " << r.batched_s
        << ", \"expected_sequential_s\": " << r.sequential_s
        << ", \"speedup\": " << r.speedup
        << ", \"replica_generation_batched_s\": "
        << r.batched_s / static_cast<double>(options.replicas)
        << ", \"replica_generation_sequential_s\": "
        << r.sequential_s / static_cast<double>(options.replicas)
        << ", \"full_step_s\": " << r.step_s << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main() {
  using namespace qs;
  const unsigned nu = bench::env_unsigned("QS_BENCH_MAX_NU", 22);
  const unsigned context_nu = std::min(nu, 16u);
  const unsigned reps = 3;
  const char* json_env = std::getenv("QS_BENCH_ENSEMBLE_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_ensemble.json";

  stochastic::EnsembleOptions options;
  options.replicas = bench::env_unsigned("QS_BENCH_ENSEMBLE_REPLICAS", 8);
  options.population_size = 10000;
  options.panel_width = 8;
  options.seed = 1;

  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto context_model = core::MutationModel::uniform(context_nu, 0.01);
  const auto context_landscape = core::Landscape::single_peak(context_nu, 2.0, 1.0);

  const auto serial = parallel::make_engine(parallel::Backend::serial);
  const auto pool = parallel::make_engine(parallel::Backend::thread_pool);
  const std::vector<std::pair<const char*, const parallel::Engine*>> backends = {
      {"serial", serial.get()}, {"thread-pool", pool.get()}};

  std::cout << "ensemble throughput: nu = " << nu << ", R = " << options.replicas
            << " replicas, m = " << options.panel_width
            << " panel columns, N_pop = " << options.population_size
            << " (expected phase = all R mutation products of one generation)\n\n";

  std::vector<BackendRow> rows;
  for (const auto& [name, engine] : backends) {
    BackendRow row;
    row.name = name;
    row.concurrency = engine->concurrency();
    {
      // One ensemble per backend: at nu = 22 the counts + expected + panel
      // working set is ~0.8 GB, so scope it to the measurement.
      stochastic::ReplicaEnsemble ensemble(model, landscape, options, engine);
      ensemble.compute_expected(true);  // warm-up: faults pages, primes plan
      row.batched_s =
          bench::time_best_of(reps, [&] { ensemble.compute_expected(true); });
      row.sequential_s =
          bench::time_best_of(reps, [&] { ensemble.compute_expected(false); });
      row.speedup = row.sequential_s / row.batched_s;
    }
    {
      stochastic::ReplicaEnsemble context(context_model, context_landscape,
                                          options, engine);
      context.step();  // warm-up
      row.step_s = bench::time_best_of(reps, [&] { context.step(); });
    }
    rows.push_back(row);
    std::cout << "  " << name << ": batched " << row.batched_s
              << " s, sequential " << row.sequential_s << " s ("
              << row.speedup << "x)\n";
  }

  std::cout << "\n";
  TextTable table({"backend", "lanes", "batched [s]", "sequential [s]",
                   "speedup", "s/replica-gen", "full step @nu=" +
                   std::to_string(context_nu) + " [s]"});
  for (const BackendRow& r : rows) {
    table.add_row_numeric(
        r.name, {static_cast<double>(r.concurrency), r.batched_s,
                 r.sequential_s, r.speedup,
                 r.batched_s / static_cast<double>(options.replicas), r.step_s});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: batched >= 1.5x the sequential expected "
               "phase per replica-generation at nu = 22, R >= 8 (the panel "
               "path amortises DRAM traffic m-fold).\n";

  std::cout << "\nCSV\nbackend,lanes,expected_batched_s,expected_sequential_s,"
               "speedup,full_step_s\n";
  for (const BackendRow& r : rows) {
    std::cout << r.name << ',' << r.concurrency << ',' << r.batched_s << ','
              << r.sequential_s << ',' << r.speedup << ',' << r.step_s << "\n";
  }

  write_json(json_path, nu, context_nu, options, rows);
  return 0;
}
