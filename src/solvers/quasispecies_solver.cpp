#include "solvers/quasispecies_solver.hpp"

#include <filesystem>
#include <memory>
#include <utility>

#include "analysis/error_classes.hpp"
#include "core/fmmp.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "obs/trace.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

/// A run needs the degradation rule when the iterate went non-finite or the
/// stall detector stopped it above the acceptance floor — both cases where
/// a restart from clean state can still produce the eigenpair.
bool needs_recovery(const PowerResult& r) {
  return r.failure == SolverFailure::non_finite || (r.stalled && !r.converged);
}

}  // namespace

QuasispeciesResult solve(const core::MutationModel& model,
                         const core::Landscape& landscape,
                         const SolveOptions& options) {
  require(model.dimension() == landscape.dimension(),
          "solve: model and landscape dimensions differ");

  // The planned operator owns the (possibly autotuned) banded plan and the
  // scratch workspace the solver loop below borrows, so repeated applies
  // allocate nothing.
  core::PlannedOperatorConfig config;
  config.formulation = options.formulation;
  config.engine = options.engine;
  config.plan = options.plan;
  config.autotune = options.autotune;
  auto planned = std::make_unique<core::PlannedOperator>(model, landscape, config);
  core::Workspace& workspace = planned->workspace();
  std::unique_ptr<core::LinearOperator> op = std::move(planned);
  if (options.wrap_operator) op = options.wrap_operator(std::move(op));

  PowerOptions popts;
  // The whole shared iteration block — tolerance, caps, stall window,
  // engine, workspace, checkpointing, hooks — forwards in one assignment.
  static_cast<IterationOptions&>(popts) = options;
  if (popts.workspace == nullptr) popts.workspace = &workspace;
  if (options.use_shift && model.symmetric() &&
      model.kind() != core::MutationKind::grouped) {
    popts.shift = core::conservative_shift(model, landscape);
  }

  PowerResult r = options.resume != nullptr
                      ? resume_power_iteration(*op, *options.resume, popts)
                      : power_iteration(*op, landscape_start(landscape), popts);

  // Graceful degradation, one restart at most: prefer the last good
  // checkpoint (periodic checkpoints are only written with a finite
  // iterate, so it is a safe restart point even after a NaN); without one,
  // fall back from the shifted to the unshifted iteration — numerically the
  // plainest configuration that still converges to the same eigenpair.
  unsigned recovery_attempts = 0;
  unsigned checkpoint_failures = r.checkpoint_failures;
  if (options.recover && needs_recovery(r)) {
    bool resumed = false;
    // A checkpoint restart only helps the non-finite case (a transient
    // fault struck after the last good snapshot); a stalled run restored
    // with its stall-window state would deterministically stall again, so
    // stalls go straight to the shift fallback.
    if (r.failure == SolverFailure::non_finite && popts.checkpoint_every > 0 &&
        !popts.checkpoint_path.empty() &&
        std::filesystem::exists(popts.checkpoint_path)) {
      try {
        const io::SolverCheckpoint last_good =
            io::load_checkpoint(popts.checkpoint_path);
        ++recovery_attempts;
        QS_TRACE_INSTANT_ARG("facade.recover.checkpoint_restart", facade,
                             last_good.residual,
                             static_cast<std::int64_t>(last_good.iteration));
        r = resume_power_iteration(*op, last_good, popts);
        checkpoint_failures += r.checkpoint_failures;
        resumed = true;
      } catch (const std::runtime_error&) {
        // Torn or unrelated file: fall through to the shift fallback.
      }
    }
    if (!resumed && popts.shift != 0.0) {
      ++recovery_attempts;
      QS_TRACE_INSTANT_ARG("facade.recover.shift_fallback", facade, r.residual,
                           static_cast<std::int64_t>(r.iterations));
      popts.shift = 0.0;
      r = power_iteration(*op, landscape_start(landscape), popts);
      checkpoint_failures += r.checkpoint_failures;
    }
  }

  QuasispeciesResult out;
  static_cast<IterationResult&>(out) = r;
  out.recovery_attempts = recovery_attempts;
  out.shift_schedule = r.shift_schedule;
  out.dropped_mass = r.dropped_mass;
  out.checkpoint_failures = checkpoint_failures;
  out.concentrations = std::move(r.eigenvector);
  if (out.failure != SolverFailure::none) {
    // Garbage iterate: skip the formulation conversion and class analysis
    // (both would only push NaNs through more arithmetic).
    return out;
  }
  if (options.formulation != core::Formulation::right) {
    core::convert_eigenvector(options.formulation, core::Formulation::right,
                              landscape, out.concentrations);
  }
  out.class_concentrations =
      analysis::class_concentrations(model.nu(), out.concentrations);
  return out;
}

QuasispeciesResult solve(double p, const core::ErrorClassLandscape& landscape) {
  const ReducedResult reduced = solve_reduced(p, landscape);
  QuasispeciesResult out;
  out.eigenvalue = reduced.eigenvalue;
  out.class_concentrations = reduced.class_concentrations;
  out.converged = true;
  out.iterations = 0;  // direct solve
  out.residual = 0.0;
  if (landscape.nu() <= 24) {
    out.concentrations =
        expand_representatives(landscape.nu(), reduced.representatives);
  }
  return out;
}

}  // namespace qs::solvers
