#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "core/workspace.hpp"
#include "linalg/vector_ops.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/bits.hpp"
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

/// A landscape family as the power loop's one participant: m interleaved
/// columns, column j pre-scaled by F_j read in place through its column
/// pointer, so one fused panel butterfly computes W_j x_j = Q (F_j x_j) for
/// every j at once.  Products may run in place: the fused kernel allows
/// exact aliasing, and the grouped scaling sweep is row-wise.
class FamilyCollective final : public solvers::BlockCollective {
 public:
  FamilyCollective(const core::MutationModel& model,
                   std::span<const double* const> columns, core::FitnessRange range,
                   const parallel::Engine& engine, const transforms::BlockedPlan& plan)
      : model_(model), columns_(columns), range_(range), engine_(engine), plan_(plan) {}

  void apply(std::span<const double> x, std::span<double> y) override {
    const std::size_t m = columns_.size();
    if (model_.kind() != core::MutationKind::grouped) {
      transforms::apply_blocked_panel_butterfly_columns(
          x, y, m, model_.site_factors(), columns_, engine_, plan_);
      return;
    }
    const transforms::SvKernels& k = transforms::resolve_sv_kernels(plan_.sv_kernel);
    const double* xp = x.data();
    const double* const* cols = columns_.data();
    double* yp = y.data();
    engine_.dispatch(y.size() / m, [=, &k](std::size_t begin, std::size_t end) {
      k.mul_rows_columns(yp + begin * m, xp + begin * m, cols, begin, end - begin, m);
    });
    model_.apply_panel(y, m, engine_, plan_);
  }
  void allreduce(std::span<double>) override {}
  std::span<const double> gather(std::span<const double> x) override { return x; }
  bool is_root() const override { return true; }
  unsigned participants() const override { return 1; }
  std::size_t width() const override { return columns_.size(); }
  bool aliasing() const override { return true; }
  std::optional<core::FitnessRange> fitness_range() const override { return range_; }

 private:
  const core::MutationModel& model_;
  std::span<const double* const> columns_;
  core::FitnessRange range_;
  const parallel::Engine& engine_;
  const transforms::BlockedPlan& plan_;
};

}  // namespace

std::vector<std::vector<double>> FamilyPanel::class_concentrations() const {
  return panel_class_concentrations(log2_exact(panel_.size() / width_), panel_,
                                    width_);
}

FamilyPanel solve_landscape_family(const core::MutationModel& model,
                                   std::span<const core::Landscape> family,
                                   const FamilyOptions& options) {
  require(!family.empty(), "sweep_landscape_family: empty family");
  const std::size_t n = model.dimension();
  for (const core::Landscape& f : family) {
    require(f.dimension() == n,
            "sweep_landscape_family: landscape dimension differs from Q");
  }
  const std::size_t m = family.size();

  // The landscapes stay where the caller keeps them: the products read each
  // column's scaling through its pointer.  The loop starts from the paper's
  // landscape start, per column, interleaved into the iterate panel with
  // landscape_start's arithmetic (F_j times the reciprocal of its tree
  // 1-norm).
  core::FitnessRange range{std::numeric_limits<double>::infinity(), 0.0};
  std::vector<const double*> columns(m);
  std::vector<double> inv(m);
  const transforms::SvKernels& sv =
      transforms::resolve_sv_kernels(transforms::SvKernel::automatic);
  for (std::size_t j = 0; j < m; ++j) {
    const core::Landscape& f = family[j];
    range.min = std::min(range.min, f.min_fitness());
    range.max = std::max(range.max, f.max_fitness());
    columns[j] = f.values().data();
    const double norm = sv.tree_abs_sum(columns[j], n);
    require(norm > 0.0, "landscape_start: landscape has zero 1-norm");
    inv[j] = 1.0 / norm;
  }

  // The panels are n x m doubles of fresh memory on every solve, so they
  // come from huge-page workspaces: a 4 MiB panel faults in as two pages,
  // not 1024 (DESIGN.md §9).  The product panel serves only the loop and
  // goes with `loop_panels` on return; the iterate panel is the result's.
  FamilyPanel result(m);
  result.panel_ = result.storage_.take(core::Workspace::Slot::family_iterate, n * m);
  double* iterate = result.panel_.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) iterate[i * m + j] = columns[j][i] * inv[j];
  }
  core::Workspace loop_panels(core::Workspace::huge_page_advice);

  // The family stops by the facade's rule: the shared iteration block with
  // the family's tolerance, cap, cadence, engine and cancellation, and the
  // stall window of IterationOptions' defaults.  The loop runs unshifted.
  solvers::IterationOptions iteration;
  iteration.tolerance = options.tolerance;
  iteration.max_iterations = options.max_iterations;
  iteration.residual_check_every = options.residual_check_every;
  iteration.engine = options.engine;
  iteration.should_stop = options.should_stop;
  iteration.workspace = &loop_panels;
  solvers::IterationTrace trace;
  trace.residual = std::numeric_limits<double>::infinity();
  FamilyCollective collective(model, columns, range,
                              parallel::engine_or_serial(options.engine),
                              options.plan);
  solvers::PowerResult r = solvers::run_power_loop(
      collective, std::move(trace),
      solvers::IterationDriver(iteration, io::SolverKind::power, n), iteration, 0.0,
      result.panel_);

  result.eigenvalues = std::move(r.column_eigenvalues);
  result.residuals = std::move(r.column_residuals);
  result.panel_products = r.iterations;
  result.converged = r.converged;
  result.cancelled = r.failure == solvers::SolverFailure::cancelled;
  return result;
}

FamilyResult sweep_landscape_family(const core::MutationModel& model,
                                    std::span<const core::Landscape> family,
                                    const FamilyOptions& options) {
  const FamilyPanel solved = solve_landscape_family(model, family, options);
  FamilyResult result;
  static_cast<FamilyOutcome&>(result) = solved;
  const std::size_t m = solved.width();
  const std::span<const double> panel = solved.panel();
  const std::size_t n = panel.size() / m;
  result.eigenvectors.resize(m);
  for (std::vector<double>& v : result.eigenvectors) v.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) result.eigenvectors[j][i] = panel[i * m + j];
  }
  return result;
}

void write_sweep_csv(const SweepResult& sweep, std::ostream& out) {
  require(!sweep.class_concentrations.empty(), "write_sweep_csv: empty sweep");
  const std::size_t classes = sweep.class_concentrations.front().size();
  CsvWriter csv(out);
  std::vector<std::string> header{"p"};
  for (std::size_t k = 0; k < classes; ++k) {
    // Appended rather than "G" + to_string(k), which GCC 12 misreports
    // under -Wrestrict once inlined here.
    header.push_back("G");
    header.back() += std::to_string(k);
  }
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
