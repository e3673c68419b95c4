// Panel-batched finite-population replica ensemble.
//
// One Wright-Fisher replica costs Theta(N log2 N) per generation — the
// expected-offspring distribution pi = Q (f .* n) rides on the fast
// mutation matrix product — but a single replica says nothing about the
// *distribution* of finite-N outcomes (Dixit & Srivastava's finite
// population model; Cerf & Dalmau's quasispecies distribution).  Estimating
// that distribution takes ensembles of R independent replicas, and R
// sequential mat-vecs per generation are memory-bound: each one streams the
// whole 2^nu vector from DRAM for ~4 flops per double per band.
//
// This engine batches the R expected-offspring products of one generation
// through the multi-vector panel Fmmp path (transforms/panel_butterfly) in
// m-column interleaved panels: the panel kernel advances all m replicas
// through a level band in ONE sweep over memory, through the SIMD
// microkernels, amortising the DRAM traffic m-fold.  Everything around the
// panel product — packing counts, sanitising the per-replica
// distributions, the multinomial resampling draws — fans out across the
// execution engine's lanes.
//
// Reproducibility contract: replica r draws from stream r of a seed-jumped
// Xoshiro256 family (Xoshiro256::jump, streams 2^128 draws apart), work is
// partitioned over replicas/indices in a schedule-independent way, and all
// per-column reductions accumulate in a FIXED order (serial index order or
// fixed-size block partials reduced in block order) that never depends on
// the engine's chunking — so for a fixed seed the ensemble trajectory is
// BIT-IDENTICAL across backends (serial / thread pool) and thread
// counts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "parallel/engine.hpp"
#include "stochastic/moran.hpp"
#include "stochastic/population.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::stochastic {

/// Widest supported interleaved panel (bounds a stack scratch array in the
/// fused unpack/normalise sweep).
inline constexpr std::size_t kMaxPanelWidth = 64;

/// Which finite-population process every replica runs.
enum class EnsembleProcess {
  wright_fisher,  ///< non-overlapping generations, panel-batched mat-vecs
  moran,          ///< N_pop birth-death events per generation, replica fan-out
};

struct EnsembleOptions {
  std::size_t replicas = 8;
  std::uint64_t population_size = 10000;
  EnsembleProcess process = EnsembleProcess::wright_fisher;

  /// Columns per interleaved panel (m of apply_panel).  8 matches the
  /// AVX-512 microkernel width; the replica count need not be a multiple
  /// (the final chunk runs narrower).
  std::size_t panel_width = 8;

  /// Root seed of the per-replica jumped RNG streams.
  std::uint64_t seed = 1;

  /// Start every replica uniform over species instead of monomorphic on
  /// the master sequence.
  bool start_uniform = false;

  /// Tiling plan for the banded/panel Fmmp kernels.
  transforms::BlockedPlan plan{};
};

/// Cross-replica summary of the time-averaged species frequencies.
struct EnsembleStatistics {
  std::size_t replicas = 0;
  std::vector<double> mean;      ///< ensemble mean frequency per species
  std::vector<double> variance;  ///< unbiased cross-replica variance per species
  std::vector<double> class_mean;  ///< error classes [Gamma_k] of `mean`
  double master_mean = 0.0;  ///< mean over replicas of per-replica [Gamma_0]
  double master_std = 0.0;   ///< cross-replica std of [Gamma_0] (smearing width)
  double mean_fitness = 0.0;  ///< landscape mean fitness of `mean`
};

/// R independent finite-population replicas advanced in lockstep, their
/// per-generation mutation products batched through the panel Fmmp path.
class ReplicaEnsemble {
 public:
  /// `model` is copied; `landscape` is referenced and must outlive the
  /// ensemble.  `engine` (nullptr = the serial engine) must outlive the
  /// ensemble; it carries both the panel kernels and the replica fan-out.
  /// The Moran process requires a 2x2-factor mutation kind.
  ReplicaEnsemble(core::MutationModel model, const core::Landscape& landscape,
                  const EnsembleOptions& options,
                  const parallel::Engine* engine = nullptr);

  std::size_t replicas() const { return populations_.size(); }
  unsigned nu() const { return model_.nu(); }
  const EnsembleOptions& options() const { return options_; }
  const parallel::Engine& engine() const { return *engine_; }
  const Population& population(std::size_t r) const;

  /// Computes the expected next-generation distribution of every replica
  /// into expected() — the mutation phase of a Wright-Fisher generation,
  /// and the phase the panel batching accelerates.  `batched` selects the
  /// m-column panel path; false runs the reference per-replica
  /// single-vector products (same math, same backend — the baseline the
  /// ensemble bench compares against).  Wright-Fisher only.
  void compute_expected(bool batched);

  /// Expected distribution of replica r from the last compute_expected.
  std::span<const double> expected(std::size_t r) const;

  /// Resamples every replica's population multinomially from expected(),
  /// fanned out across the engine with per-replica RNG streams.
  /// Wright-Fisher only; population sizes are conserved exactly.
  void resample();

  /// One generation for all replicas: panel-batched expected-offspring +
  /// resampling for Wright-Fisher, N_pop birth-death events per replica
  /// for Moran.
  void step();

  /// One generation through the sequential per-replica reference path
  /// (Wright-Fisher; for Moran this is identical to step()).
  void step_sequential();

  /// Runs `generations` steps, time-averaging each replica's frequency
  /// vector over the last `average_window` generations (0 = keep only the
  /// final state), then makes the averages available via replica_average()
  /// / statistics().  `should_stop` (optional) is polled at every
  /// generation boundary; returning true ends the run early with
  /// cancelled() = true — the averages over the generations completed so
  /// far stay valid, so an interrupted run still reports statistics.
  void run(std::uint64_t generations, std::uint64_t average_window,
           bool batched = true, const std::function<bool()>& should_stop = {});

  /// Generations the last run() completed (== requested unless cancelled).
  std::uint64_t generations_completed() const { return generations_completed_; }

  /// True when the last run() was ended early by its should_stop hook.
  bool cancelled() const { return cancelled_; }

  /// Time-averaged frequencies of replica r from the last run().
  std::span<const double> replica_average(std::size_t r) const;

  /// Cross-replica statistics of the last run()'s time averages.
  EnsembleStatistics statistics() const;

  /// Records the ensemble configuration and `stats` into the process-wide
  /// obs::metrics() recorder (ensemble.* keys).
  void record_metrics(const EnsembleStatistics& stats) const;

 private:
  void step_moran();

  core::MutationModel model_;
  const core::Landscape* landscape_;
  EnsembleOptions options_;
  const parallel::Engine* engine_;
  core::FmmpOperator op_;

  std::vector<Population> populations_;
  std::vector<Xoshiro256> rngs_;  // Wright-Fisher resampling streams
  std::vector<Moran> morans_;     // Moran replicas (own the same streams)

  std::vector<std::vector<double>> expected_;  // R x N
  std::vector<double> panel_;                  // N x panel_width scratch
  std::vector<double> block_sums_;             // fixed-block normaliser partials
  std::vector<std::vector<double>> averages_;  // R x N time averages
  bool have_averages_ = false;
  std::uint64_t generations_completed_ = 0;
  bool cancelled_ = false;
};

}  // namespace qs::stochastic
