#include "stochastic/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "analysis/error_classes.hpp"
#include "analysis/statistics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stochastic/sampling.hpp"
#include "support/contracts.hpp"

namespace qs::stochastic {
namespace {

/// Calls body(width) with the panel width as a compile-time constant for
/// the default width 8 — the per-row column loops then unroll and keep
/// their pointers and sums in registers — and as the runtime value
/// otherwise.  The arithmetic is the same either way.
template <typename Body>
void with_panel_width(std::size_t w, const Body& body) {
  if (w == 8) {
    body(std::integral_constant<std::size_t, 8>{});
  } else {
    body(w);
  }
}

}  // namespace

ReplicaEnsemble::ReplicaEnsemble(core::MutationModel model,
                                 const core::Landscape& landscape,
                                 const EnsembleOptions& options,
                                 const parallel::Engine* engine)
    : model_(std::move(model)),
      landscape_(&landscape),
      options_(options),
      engine_(engine != nullptr ? engine : &parallel::serial_engine()),
      op_(model_, landscape, core::Formulation::right, engine_, options.plan) {
  require(model_.dimension() == landscape.dimension(),
          "ReplicaEnsemble: model and landscape dimensions differ");
  require(options_.replicas >= 1, "ReplicaEnsemble: need at least one replica");
  require(options_.panel_width >= 1 && options_.panel_width <= kMaxPanelWidth,
          "ReplicaEnsemble: panel width must be in [1, 64]");
  require(options_.population_size >= 2,
          "ReplicaEnsemble: population size must be >= 2");

  const unsigned nu = model_.nu();
  const std::size_t n = model_.dimension();
  populations_.reserve(options_.replicas);
  rngs_.reserve(options_.replicas);
  expected_.resize(options_.replicas);

  // Stream r of the jumped family: seed the root once, then jump a running
  // generator — replica r sits exactly r * 2^128 draws downstream, so the
  // assignment of stream to replica never depends on scheduling.
  Xoshiro256 stream(options_.seed);
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    populations_.push_back(options_.start_uniform
                               ? Population::uniform(nu, options_.population_size)
                               : Population::monomorphic(nu, options_.population_size));
    rngs_.push_back(stream);
    if (options_.process == EnsembleProcess::moran) {
      morans_.emplace_back(model_, landscape, stream);
    } else {
      expected_[r].resize(n);
    }
    stream.jump();
  }
  if (options_.process == EnsembleProcess::wright_fisher) {
    panel_.resize(n * std::min(options_.panel_width, options_.replicas));
  }
}

const Population& ReplicaEnsemble::population(std::size_t r) const {
  require(r < populations_.size(), "ReplicaEnsemble: replica index out of range");
  return populations_[r];
}

std::span<const double> ReplicaEnsemble::expected(std::size_t r) const {
  require(options_.process == EnsembleProcess::wright_fisher,
          "ReplicaEnsemble: expected() is a Wright-Fisher concept");
  require(r < expected_.size(), "ReplicaEnsemble: replica index out of range");
  return expected_[r];
}

void ReplicaEnsemble::compute_expected(bool batched) {
  require(options_.process == EnsembleProcess::wright_fisher,
          "ReplicaEnsemble: compute_expected() requires the Wright-Fisher process");
  const std::size_t n = model_.dimension();
  const std::size_t R = populations_.size();

  if (!batched) {
    // Reference path: one single-vector banded product per replica, on the
    // same engine — exactly R times the memory traffic of the panel path.
    QS_TRACE_SPAN_ARG("ensemble.expected_sequential", solver, R);
    for (std::size_t r = 0; r < R; ++r) {
      const auto counts = populations_[r].counts();
      std::span<double> x(panel_.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = static_cast<double>(counts[i]);
      }
      op_.apply(x, expected_[r]);
      sanitize_distribution(expected_[r]);
    }
    return;
  }

  QS_TRACE_SPAN_ARG("ensemble.expected_batched", solver, R);
  for (std::size_t r0 = 0; r0 < R; r0 += options_.panel_width) {
    const std::size_t w = std::min(options_.panel_width, R - r0);
    const std::span<double> panel(panel_.data(), n * w);

    // Pack the replica counts into the interleaved panel: element i of
    // column j is panel[i*w + j].  Elementwise writes — deterministic
    // however the engine chunks the index space.
    {
      QS_TRACE_SPAN("ensemble.pack", kernel);
      double* pp = panel.data();
      std::vector<const std::uint64_t*> cols(w);
      for (std::size_t j = 0; j < w; ++j) {
        cols[j] = populations_[r0 + j].counts().data();
      }
      const std::uint64_t* const* cp = cols.data();
      with_panel_width(w, [&](auto width) {
        engine_->dispatch(n, [=](std::size_t begin, std::size_t end) {
          const std::size_t wc = width;
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t j = 0; j < wc; ++j) {
              pp[i * wc + j] = static_cast<double>(cp[j][i]);
            }
          }
        });
      });
    }

    // All w columns through one banded panel product (in place).
    op_.apply_panel(panel, panel, w);

    // Unpack in one i-major sweep (column-major reads would touch a whole
    // cache line per element — w strided passes over the panel), fusing the
    // sanitiser's clamp + normaliser sum into the same sweep: partial sums
    // land in the FIXED kNormaliserBlock blocks of sanitize_distribution and
    // are reduced in block order, so the normaliser — hence the whole
    // trajectory — is bit-identical to the sequential path's, however the
    // engine chunks the index space.  Only the scale sweep remains as a
    // second pass.
    {
      QS_TRACE_SPAN("ensemble.unpack", kernel);
      const std::size_t blocks = (n + kNormaliserBlock - 1) / kNormaliserBlock;
      block_sums_.assign(blocks * w, 0.0);
      const double* pp = panel.data();
      double* bs = block_sums_.data();
      std::vector<double*> outs(w);
      for (std::size_t j = 0; j < w; ++j) outs[j] = expected_[r0 + j].data();
      double* const* out = outs.data();
      with_panel_width(w, [&](auto width) {
        engine_->dispatch(blocks, [=](std::size_t bb, std::size_t be) {
          const std::size_t wc = width;
          double colsum[kMaxPanelWidth];
          for (std::size_t b = bb; b < be; ++b) {
            const std::size_t i1 = std::min(n, (b + 1) * kNormaliserBlock);
            for (std::size_t j = 0; j < wc; ++j) colsum[j] = 0.0;
            for (std::size_t i = b * kNormaliserBlock; i < i1; ++i) {
              for (std::size_t j = 0; j < wc; ++j) {
                double v = pp[i * wc + j];
                if (!(v > 0.0)) v = 0.0;  // negatives, -0.0, and NaN carry no mass
                out[j][i] = v;
                colsum[j] += v;
              }
            }
            for (std::size_t j = 0; j < wc; ++j) bs[b * wc + j] = colsum[j];
          }
        });
      });
      engine_->dispatch(w, [=](std::size_t jb, std::size_t je) {
        for (std::size_t j = jb; j < je; ++j) {
          double total = 0.0;
          for (std::size_t b = 0; b < blocks; ++b) total += bs[b * w + j];
          require(total > 0.0 && std::isfinite(total),
                  "ReplicaEnsemble: expected distribution has no positive mass");
          const double inv = 1.0 / total;
          double* pi = out[j];
          for (std::size_t i = 0; i < n; ++i) pi[i] *= inv;
        }
      });
    }
  }
}

void ReplicaEnsemble::resample() {
  require(options_.process == EnsembleProcess::wright_fisher,
          "ReplicaEnsemble: resample() requires the Wright-Fisher process");
  QS_TRACE_SPAN_ARG("ensemble.resample", solver, populations_.size());
  // Replica r always draws from stream r: the draw sequence is a function
  // of the replica index alone, never of the lane that runs it.
  engine_->dispatch(populations_.size(), [this](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::uint64_t size = populations_[r].size();
      multinomial_sample_into(rngs_[r], size, expected_[r],
                              populations_[r].counts());
      populations_[r].refresh_size();
    }
  });
}

void ReplicaEnsemble::step_moran() {
  QS_TRACE_SPAN_ARG("ensemble.moran_generation", solver, populations_.size());
  // One "generation" = N_pop birth-death events per replica; replicas are
  // independent processes fanned out across the engine lanes.
  engine_->dispatch(populations_.size(), [this](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      morans_[r].run(populations_[r], populations_[r].size());
    }
  });
}

void ReplicaEnsemble::step() {
  if (options_.process == EnsembleProcess::moran) {
    step_moran();
    return;
  }
  QS_TRACE_SPAN("ensemble.generation", solver);
  compute_expected(true);
  resample();
}

void ReplicaEnsemble::step_sequential() {
  if (options_.process == EnsembleProcess::moran) {
    step_moran();
    return;
  }
  QS_TRACE_SPAN("ensemble.generation", solver);
  compute_expected(false);
  resample();
}

void ReplicaEnsemble::run(std::uint64_t generations, std::uint64_t average_window,
                          bool batched,
                          const std::function<bool()>& should_stop) {
  require(average_window <= generations,
          "ReplicaEnsemble::run: averaging window exceeds the run length");
  const std::size_t n = model_.dimension();
  const std::size_t R = populations_.size();
  averages_.resize(R);
  for (auto& avg : averages_) avg.assign(n, 0.0);
  generations_completed_ = 0;
  cancelled_ = false;

  const std::uint64_t averaging_start = generations - average_window;
  std::uint64_t averaged = 0;
  for (std::uint64_t g = 0; g < generations; ++g) {
    // Cooperative cancellation at a generation boundary: the averages
    // gathered so far stay consistent, so a SIGTERM'd run still reports
    // (partial-window) statistics instead of discarding hours of work.
    if (should_stop && should_stop()) {
      generations_completed_ = g;
      cancelled_ = true;
      break;
    }
    batched ? step() : step_sequential();
    generations_completed_ = g + 1;
    if (g >= averaging_start) {
      ++averaged;
      engine_->dispatch(R, [this, n](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const auto counts = populations_[r].counts();
          const double inv = 1.0 / static_cast<double>(populations_[r].size());
          std::vector<double>& avg = averages_[r];
          for (std::size_t i = 0; i < n; ++i) {
            avg[i] += static_cast<double>(counts[i]) * inv;
          }
        }
      });
    }
  }

  if (averaged == 0) {
    for (std::size_t r = 0; r < R; ++r) {
      const auto freqs = populations_[r].frequencies();
      std::copy(freqs.begin(), freqs.end(), averages_[r].begin());
    }
  } else {
    const double inv = 1.0 / static_cast<double>(averaged);
    for (auto& avg : averages_) {
      for (double& v : avg) v *= inv;
    }
  }
  have_averages_ = true;
}

std::span<const double> ReplicaEnsemble::replica_average(std::size_t r) const {
  require(have_averages_, "ReplicaEnsemble: run() has not been called");
  require(r < averages_.size(), "ReplicaEnsemble: replica index out of range");
  return averages_[r];
}

EnsembleStatistics ReplicaEnsemble::statistics() const {
  require(have_averages_, "ReplicaEnsemble: run() has not been called");
  const std::size_t n = model_.dimension();
  const std::size_t R = averages_.size();

  EnsembleStatistics stats;
  stats.replicas = R;
  stats.mean.assign(n, 0.0);
  stats.variance.assign(n, 0.0);

  const double inv_r = 1.0 / static_cast<double>(R);
  for (const auto& avg : averages_) {
    for (std::size_t i = 0; i < n; ++i) stats.mean[i] += avg[i] * inv_r;
  }
  if (R > 1) {
    const double inv_r1 = 1.0 / static_cast<double>(R - 1);
    for (const auto& avg : averages_) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = avg[i] - stats.mean[i];
        stats.variance[i] += d * d * inv_r1;
      }
    }
  }

  stats.class_mean = analysis::class_concentrations(model_.nu(), stats.mean);

  // Master-class smearing: the spread of the per-replica ordered-phase
  // order parameter is what distinguishes finite N from the deterministic
  // threshold (which is a step, not a distribution).
  double master_sum = 0.0, master_sq = 0.0;
  for (const auto& avg : averages_) {
    const double g0 = analysis::class_concentrations(model_.nu(), avg)[0];
    master_sum += g0;
    master_sq += g0 * g0;
  }
  stats.master_mean = master_sum * inv_r;
  const double var =
      R > 1 ? std::max(0.0, (master_sq - master_sum * master_sum * inv_r) /
                                static_cast<double>(R - 1))
            : 0.0;
  stats.master_std = std::sqrt(var);
  stats.mean_fitness = analysis::mean_fitness(*landscape_, stats.mean);
  return stats;
}

void ReplicaEnsemble::record_metrics(const EnsembleStatistics& stats) const {
  auto& m = obs::metrics();
  m.set_info("ensemble.process", options_.process == EnsembleProcess::moran
                                     ? "moran"
                                     : "wright-fisher");
  m.set_info("ensemble.backend", std::string(engine_->name()));
  m.set_value("ensemble.replicas", static_cast<double>(stats.replicas));
  m.set_value("ensemble.population", static_cast<double>(options_.population_size));
  m.set_value("ensemble.panel_width", static_cast<double>(options_.panel_width));
  m.set_value("ensemble.nu", static_cast<double>(model_.nu()));
  m.set_value("ensemble.master_mean", stats.master_mean);
  m.set_value("ensemble.master_std", stats.master_std);
  m.set_value("ensemble.mean_fitness", stats.mean_fitness);
}

}  // namespace qs::stochastic
