#include "analysis/sweep.hpp"

#include <cmath>
#include <mutex>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "core/workspace.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/contracts.hpp"
#include "support/csv.hpp"
#include "transforms/panel_butterfly.hpp"

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

  // Interleaved per-column pre-scaling panel: column j carries F_j, so one
  // fused panel butterfly computes y_j = Q (F_j x_j) = W_j x_j for all j.
  std::vector<double> pre(n * m), x(n * m), y(n * m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto fv = family[j].values();
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += fv[i];
    for (std::size_t i = 0; i < n; ++i) {
      pre[i * m + j] = fv[i];
      x[i * m + j] = fv[i] / sum;  // the paper's landscape start, per column
    }
  }

  const bool grouped = model.kind() == core::MutationKind::grouped;
  const auto panel_product = [&]() {
    if (!grouped) {
      transforms::apply_blocked_panel_butterfly_fused(
          x, y, m, model.site_factors(), pre, {}, engine, options.plan);
      return;
    }
    const double* xp = x.data();
    const double* pp = pre.data();
    double* yp = y.data();
    engine.dispatch(n * m, [=](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) yp[i] = pp[i] * xp[i];
    });
    model.apply_panel(y, m, engine, options.plan);
  };

  // Per-column partial sums (one pass, merged under a mutex; m is small).
  const auto column_sums = [&](const double* p, std::vector<double>& out) {
    out.assign(m, 0.0);
    std::mutex merge;
    engine.dispatch(n, [&](std::size_t begin, std::size_t end) {
      std::vector<double> local(m, 0.0);
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = 0; j < m; ++j) local[j] += p[i * m + j];
      }
      const std::lock_guard<std::mutex> lock(merge);
      for (std::size_t j = 0; j < m; ++j) out[j] += local[j];
    });
  };

  FamilyResult result;
  std::vector<double> lambda(m, 0.0), sums, resid(m, 0.0);
  while (result.panel_products < options.max_iterations) {
    if (options.should_stop && options.should_stop()) {
      result.cancelled = true;
      break;
    }
    {
      // One span per power step: under a service batch TraceScope these
      // inherit the batch's trace id, so a merged Chrome trace shows the
      // solver iterations nested inside the request timeline.
      QS_TRACE_SPAN_ARG("sweep.panel_product", solver,
                        static_cast<std::int64_t>(result.panel_products));
      panel_product();
    }
    ++result.panel_products;

    // Nonnegative iterates and column-stochastic-scaled W: with x_j 1-norm
    // normalised, lambda_j = ||y_j||_1.
    column_sums(y.data(), sums);
    lambda = sums;

    const bool check =
        result.panel_products % options.residual_check_every == 0 ||
        result.panel_products >= options.max_iterations;
    if (check) {
      std::vector<double> num(m, 0.0);
      std::mutex merge;
      const double* xp = x.data();
      const double* yp = y.data();
      const double* lp = lambda.data();
      engine.dispatch(n, [&](std::size_t begin, std::size_t end) {
        std::vector<double> local(m, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            local[j] += std::abs(yp[i * m + j] - lp[j] * xp[i * m + j]);
          }
        }
        const std::lock_guard<std::mutex> lock(merge);
        for (std::size_t j = 0; j < m; ++j) num[j] += local[j];
      });
      bool done = true;
      double worst = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        resid[j] = lambda[j] > 0.0 ? num[j] / lambda[j] : num[j];
        if (!std::isfinite(resid[j]) || resid[j] > options.tolerance) done = false;
        worst = std::max(worst, resid[j]);
      }
      QS_TRACE_INSTANT_ARG("sweep.residual", solver, worst,
                           static_cast<std::int64_t>(result.panel_products));
      if (done) {
        result.converged = true;
        break;
      }
    }

    // x_j <- y_j / lambda_j (1-norm renormalisation, all columns at once).
    {
      double* xp = x.data();
      const double* yp = y.data();
      const double* lp = lambda.data();
      engine.dispatch(n, [=](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            xp[i * m + j] = yp[i * m + j] / lp[j];
          }
        }
      });
    }
  }

  result.eigenvalues = lambda;
  result.residuals = resid;
  result.eigenvectors.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double>& v = result.eigenvectors[j];
    v.resize(n);
    const double inv = lambda[j] > 0.0 ? 1.0 / lambda[j] : 0.0;
    for (std::size_t i = 0; i < n; ++i) v[i] = y[i * m + j] * inv;
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
