#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "core/workspace.hpp"
#include "linalg/tree_reduce.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "parallel/fan_out.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/contracts.hpp"
#include "support/csv.hpp"
#include "transforms/panel_butterfly.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::analysis {

std::vector<double> error_rate_grid(double lo, double hi, std::size_t count) {
  require(count >= 2, "error_rate_grid: need at least two points");
  require(lo > 0.0 && lo < hi && hi <= 0.5, "error_rate_grid: need 0 < lo < hi <= 1/2");
  std::vector<double> grid(count);
  for (std::size_t i = 0; i < count; ++i) {
    grid[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(count - 1);
  }
  return grid;
}

SweepResult sweep_error_rates(const core::ErrorClassLandscape& landscape,
                              std::span<const double> error_rates) {
  require(!error_rates.empty(), "sweep_error_rates: empty grid");
  SweepResult out;
  out.error_rates.assign(error_rates.begin(), error_rates.end());
  out.class_concentrations.reserve(error_rates.size());
  out.eigenvalues.reserve(error_rates.size());
  for (double p : error_rates) {
    const auto r = solvers::solve_reduced(p, landscape);
    out.class_concentrations.push_back(r.class_concentrations);
    out.eigenvalues.push_back(r.eigenvalue);
  }
  return out;
}

SweepResult sweep_error_rates(const core::Landscape& landscape,
                              std::span<const double> error_rates,
                              const SweepOptions& options) {
  require(!error_rates.empty(), "sweep_error_rates: empty grid");
  const unsigned nu = landscape.nu();

  SweepResult out;
  out.error_rates.assign(error_rates.begin(), error_rates.end());

  // One scratch workspace and (optionally autotuned) plan serve the whole
  // grid: the per-point operators change factors with p, not shape, so the
  // solver temporaries and the tiling plan carry over from point to point.
  core::Workspace workspace;
  transforms::BlockedPlan plan = options.plan;
  bool tuned = false;

  std::vector<double> previous, before_previous;
  for (double p : error_rates) {
    const auto model = core::MutationModel::uniform(nu, p);
    core::PlannedOperatorConfig config;
    config.engine = options.engine;
    config.plan = plan;
    config.autotune = options.autotune && !tuned;
    const core::PlannedOperator op(model, landscape, config);
    if (op.autotune_report().has_value()) {
      plan = op.autotune_report()->best;
      tuned = true;
    }
    solvers::PowerOptions popts;
    popts.tolerance = options.tolerance;
    popts.max_iterations = options.max_iterations;
    popts.engine = options.engine;
    popts.workspace = &workspace;
    if (options.use_shift) {
      popts.shift = core::conservative_shift(model, landscape);
    }

    // Continuation start for this grid point.
    std::vector<double> start;
    if (!options.warm_start || previous.empty()) {
      start = solvers::landscape_start(landscape);
    } else if (options.extrapolate && !before_previous.empty()) {
      // Secant extrapolation, clamped positive (the eigenvector moves
      // smoothly with p, so the linear prediction lands very close).
      start.resize(previous.size());
      for (std::size_t i = 0; i < start.size(); ++i) {
        start[i] = std::max(2.0 * previous[i] - before_previous[i], 1e-300);
      }
      linalg::normalize1(start);
    } else {
      start = previous;
    }

    auto r = solvers::power_iteration(op, start, popts);
    require(r.converged, "sweep_error_rates: power iteration failed to converge");
    out.total_iterations += r.iterations;
    out.class_concentrations.push_back(class_concentrations(nu, r.eigenvector));
    out.eigenvalues.push_back(r.eigenvalue);
    before_previous = std::move(previous);
    previous = std::move(r.eigenvector);
  }
  return out;
}

namespace {

/// The two passes of a family residual check over an n x m panel pair,
/// fanned out over the engine in aligned row blocks.  Every column sum is
/// tree-ordered over rows, so each engine returns the serial bits; all
/// scratch is allocated once per solve.  The widths the service (m = 1)
/// and study batches (m = 8) run get fixed-width loops: at nu = 16 their
/// passes measured ~4x (m = 1) and ~1.3x (m = 8) faster than the
/// runtime-width loops other widths take.
class CheckPasses {
 public:
  CheckPasses(const parallel::Engine& engine, std::size_t n, std::size_t m)
      : fan_(engine, n, 2 * m, m),
        m_(m),
        stride_(linalg::tree_reduce_rows_scratch(2 * m, n)),
        scratch_(fan_.blocks() * stride_) {}

  /// Pass 1: sums[j] = sum_i x_ij and sums[m + j] = sum_i y_ij.
  void column_sums(const double* x, const double* y, double* sums) {
    if (m_ == 1) return column_sums<1>(x, y, sums);
    if (m_ == 8) return column_sums<8>(x, y, sums);
    column_sums<0>(x, y, sums);
  }

  /// Pass 2: num[j] = sum_i |y_ij - lambda_j x_ij|, and x_ij <- y_ij inv_j
  /// in the same sweep.
  void residual_renormalise(double* x, const double* y, const double* lambda,
                            const double* inv, double* num) {
    if (m_ == 1) return residual_renormalise<1>(x, y, lambda, inv, num);
    if (m_ == 8) return residual_renormalise<8>(x, y, lambda, inv, num);
    residual_renormalise<0>(x, y, lambda, inv, num);
  }

 private:
  template <std::size_t M>
  void column_sums(const double* x, const double* y, double* sums) {
    const std::size_t m = M != 0 ? M : m_;
    const auto row = [x, y, m](std::size_t i, double* v) {
      const double* xr = x + i * m;
      const double* yr = y + i * m;
      for (std::size_t c = 0; c < m; ++c) {
        v[c] = xr[c];
        v[m + c] = yr[c];
      }
    };
    reduce<2 * M>(2 * m, row, sums);
  }

  template <std::size_t M>
  void residual_renormalise(double* x, const double* y, const double* lambda,
                            const double* inv, double* num) {
    const std::size_t m = M != 0 ? M : m_;
    const auto row = [x, y, lambda, inv, m](std::size_t i, double* v) {
      double* xr = x + i * m;
      const double* yr = y + i * m;
      for (std::size_t c = 0; c < m; ++c) {
        v[c] = std::abs(yr[c] - lambda[c] * xr[c]);
        xr[c] = yr[c] * inv[c];
      }
    };
    reduce<M>(m, row, num);
  }

  /// Column sums of `row` over the panel, one tree per fan-out block, each
  /// block with its own slice of the scratch.
  template <std::size_t W, typename Row>
  void reduce(std::size_t width, const Row& row, double* out) {
    double* scratch = scratch_.data();
    const std::size_t block = fan_.block_size();
    const std::size_t stride = stride_;
    const auto body = [&row, scratch, block, stride, width](
                          std::size_t begin, std::size_t end, double* partial) {
      linalg::tree_reduce_rows<W>(begin, end, width, row, partial,
                                  scratch + begin / block * stride);
    };
    fan_.sums(width, body, out);
  }

  parallel::FanOut fan_;
  std::size_t m_;
  std::size_t stride_;
  std::vector<double> scratch_;
};

}  // namespace

FamilyResult sweep_landscape_family(const core::MutationModel& model,
                                    std::span<const core::Landscape> family,
                                    const FamilyOptions& options) {
  require(!family.empty(), "sweep_landscape_family: empty family");
  require(options.residual_check_every >= 1,
          "sweep_landscape_family: residual_check_every must be >= 1");
  const std::size_t n = model.dimension();
  for (const core::Landscape& f : family) {
    require(f.dimension() == n,
            "sweep_landscape_family: landscape dimension differs from Q");
  }
  const std::size_t m = family.size();
  const parallel::Engine& engine = parallel::engine_or_serial(options.engine);

  // Column j's pre-scale is F_j, so one fused panel butterfly computes
  // W_j x_j = Q (F_j x_j) for every j at once.  A one-column family scales
  // by the landscape's own values: there is no panel to interleave.
  const transforms::SvKernels& sv =
      transforms::sv_kernels_or_scalar(transforms::best_sv_kernels());
  double f_min = std::numeric_limits<double>::infinity();
  double f_max = 0.0;
  std::vector<const double*> values(m);
  std::vector<double> start_sums(m);
  for (std::size_t j = 0; j < m; ++j) {
    values[j] = family[j].values().data();
    start_sums[j] = sv.tree_sum(values[j], n);
    f_min = std::min(f_min, family[j].min_fitness());
    f_max = std::max(f_max, family[j].max_fitness());
  }
  // The panels are written once, row by row, without a zero-fill first.  A
  // one-column family iterates in the vector it returns; a wider one in an
  // interleaved panel that is unpacked at the end.
  const std::size_t panel_size = m > 1 ? n * m : 0;
  const auto pre_panel = std::make_unique_for_overwrite<double[]>(panel_size);
  auto y_panel = std::make_unique_for_overwrite<double[]>(n * m);
  const auto x_panel = std::make_unique_for_overwrite<double[]>(panel_size);
  std::vector<double> column(m == 1 ? n : 0);
  const std::span<double> x =
      m > 1 ? std::span<double>(x_panel.get(), panel_size) : std::span<double>(column);
  const std::span<double> y(y_panel.get(), n * m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (m > 1) pre_panel[i * m + j] = values[j][i];
      // the paper's landscape start, per column
      x[i * m + j] = values[j][i] / start_sums[j];
    }
  }
  const std::span<const double> pre =
      m > 1 ? std::span<const double>(pre_panel.get(), panel_size)
            : family.front().values();

  // Between residual checks the iterate is left unnormalised.  Q is
  // column-stochastic, so each product scales a nonnegative column's 1-norm
  // by a factor in [f_min, f_max]; renormalising at least every
  // `renormalise_every` products keeps every iterate within 2^+-64 of norm 1.
  const double spread = std::log2(std::max(f_max, 1.0 / f_min));
  const double bound = std::floor(64.0 / spread);
  const unsigned renormalise_every =
      bound >= static_cast<double>(options.max_iterations)
          ? options.max_iterations
          : std::max(1u, static_cast<unsigned>(bound));

  // out = W x, out of place (out = y) or in place (out = x); the fused
  // kernel allows exact aliasing, and the grouped scaling sweep is
  // element-wise.
  const bool grouped = model.kind() == core::MutationKind::grouped;
  const auto panel_product = [&](std::span<double> out) {
    if (!grouped) {
      transforms::apply_blocked_panel_butterfly_fused(
          x, out, m, model.site_factors(), pre, {}, engine, options.plan);
      return;
    }
    const double* xp = x.data();
    const double* pp = pre.data();
    double* op = out.data();
    engine.dispatch(n * m, [=](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) op[i] = pp[i] * xp[i];
    });
    model.apply_panel(out, m, engine, options.plan);
  };

  CheckPasses passes(engine, n, m);
  FamilyResult result;
  result.eigenvalues.assign(m, 0.0);
  result.residuals.assign(m, std::numeric_limits<double>::infinity());
  std::vector<double> sums(2 * m), inv(m), num(m);
  unsigned unnormalised = 0;  // products since x was last renormalised
  while (result.panel_products < options.max_iterations) {
    if (options.should_stop && options.should_stop()) {
      result.cancelled = true;
      break;
    }
    const unsigned product = result.panel_products + 1;
    const bool scheduled = product % options.residual_check_every == 0 ||
                           product >= options.max_iterations;
    const bool check = scheduled || unnormalised + 1 >= renormalise_every;
    {
      // One span per power step: under a service batch TraceScope these
      // inherit the batch's trace id, so a merged Chrome trace shows the
      // solver iterations nested inside the request timeline.
      QS_TRACE_SPAN_ARG("sweep.panel_product", solver,
                        static_cast<std::int64_t>(result.panel_products));
      panel_product(check ? y : x);
    }
    result.panel_products = product;
    if (!check) {
      ++unnormalised;
      continue;
    }
    unnormalised = 0;

    // Pass 1 sums both iterates; lambda_j = ||W x_j||_1 / ||x_j||_1 for the
    // nonnegative iterates and column-stochastic Q.  Pass 2 forms the
    // relative residual ||y_j - lambda_j x_j||_1 / ||y_j||_1, which is
    // ||W xh - lambda xh||_1 / lambda for xh = x_j / ||x_j||_1, and writes
    // x_j <- y_j / ||y_j||_1 in the same sweep.
    passes.column_sums(x.data(), y.data(), sums.data());
    for (std::size_t j = 0; j < m; ++j) {
      result.eigenvalues[j] = sums[m + j] / sums[j];
      inv[j] = 1.0 / sums[m + j];
    }
    passes.residual_renormalise(x.data(), y.data(), result.eigenvalues.data(),
                                inv.data(), num.data());
    bool done = true;
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double norm = sums[m + j];
      const double r = norm > 0.0 ? num[j] / norm : num[j];
      result.residuals[j] = r;
      if (!std::isfinite(r) || r > options.tolerance) done = false;
      worst = std::max(worst, r);
    }
    QS_TRACE_INSTANT_ARG("sweep.residual", solver, worst,
                         static_cast<std::int64_t>(product));
    // A renormalisation forced by the overflow bound never ends the solve:
    // the panel-product count stays a multiple of residual_check_every.
    if (scheduled && done) {
      result.converged = true;
      break;
    }
  }

  // Only a cancellation leaves the loop between checks, with x unnormalised.
  if (unnormalised > 0) {
    for (std::size_t j = 0; j < m; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += x[i * m + j];
      for (std::size_t i = 0; i < n; ++i) x[i * m + j] /= sum;
    }
  }
  result.eigenvectors.resize(m);
  if (m == 1) {
    result.eigenvectors[0] = std::move(column);
  } else {
    // The product panel is dead: released first, its pages can back the
    // eigenvectors instead of fresh ones.
    y_panel.reset();
    for (std::vector<double>& v : result.eigenvectors) v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) result.eigenvectors[j][i] = x[i * m + j];
    }
  }
  return result;
}

void write_sweep_csv(const SweepResult& sweep, std::ostream& out) {
  require(!sweep.class_concentrations.empty(), "write_sweep_csv: empty sweep");
  const std::size_t classes = sweep.class_concentrations.front().size();
  CsvWriter csv(out);
  std::vector<std::string> header{"p"};
  for (std::size_t k = 0; k < classes; ++k) header.push_back("G" + std::to_string(k));
  header.push_back("eigenvalue");
  csv.header(header);
  for (std::size_t i = 0; i < sweep.error_rates.size(); ++i) {
    csv.row().cell(sweep.error_rates[i]);
    for (double c : sweep.class_concentrations[i]) csv.cell(c);
    csv.cell(sweep.eigenvalues[i]);
    csv.end_row();
  }
}

}  // namespace qs::analysis
