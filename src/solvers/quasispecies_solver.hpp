// High-level quasispecies solver facade.
//
// Bundles model + landscape + strategy selection into one call: general
// landscapes run the shifted power iteration on the fast mutation matrix
// product (the paper's Pi(Fmmp)); error-class landscapes use the exact
// (nu+1) x (nu+1) reduction of Section 5.1; Kronecker landscapes decouple
// per Section 5.2 (see solve_kronecker for the implicit-result API).
// Results are always reported in the `right` formulation, i.e. as relative
// concentrations.
//
// The product is always Fmmp, through core::PlannedOperator.  The paper's
// baselines (Smvp, Xmvp(d), the CSR-materialised truncated W) are oracles
// and bench baselines in the quasispecies_reference target; a reference
// solve passes one of those operators to
// power_iteration(const LinearOperator&, start, PowerOptions) with the same
// shift and start the facade would use.
//
// Resilience: with a checkpoint path configured the solve periodically
// persists its state and can resume after a crash; on a detected non-finite
// iterate (or a stall above the acceptance floor) it restarts once from the
// last good checkpoint — or falls back from the shifted to the unshifted
// iteration — before reporting a structured failure.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "io/binary_io.hpp"
#include "solvers/iteration_driver.hpp"
#include "solvers/power_iteration.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::solvers {

/// Options for the facade: the shared iteration block (tolerance, iteration
/// cap, stall window, engine/workspace, periodic checkpointing and the
/// checkpoint/residual hooks — all forwarded to the underlying power
/// iteration through solvers/iteration_driver) plus the facade's strategy
/// selection.
struct SolveOptions : IterationOptions {
  core::Formulation formulation = core::Formulation::right;
  bool use_shift = true;          ///< Apply mu = (1-2p)^nu f_min when possible.

  /// Tiling plan for the banded Fmmp kernel (see transforms/plan_autotune;
  /// the defaults are the hand-tuned fixed plan).
  transforms::BlockedPlan plan;

  /// Autotune the banded Fmmp plan for this machine before the solve: the
  /// facade's core::PlannedOperator then owns the winning plan and its
  /// report.  `plan` seeds the candidate set.
  bool autotune = false;

  /// Resume a previous run: start from this checkpoint instead of the
  /// landscape start (the caller keeps ownership; see io::load_checkpoint).
  const io::SolverCheckpoint* resume = nullptr;

  /// Graceful degradation: when the power iteration reports a non-finite
  /// iterate or stalls above its acceptance floor, retry once — from the
  /// last good checkpoint when one exists, otherwise by dropping the
  /// spectral shift (the shifted and unshifted iterations converge to the
  /// same eigenpair; the unshifted one is slower but numerically plainer).
  /// Set false to fail immediately.
  bool recover = true;

  /// Testing and instrumentation seam: when set, the constructed Fmmp
  /// operator is passed through this wrapper before the solve (e.g. to time
  /// each product, or to interpose the reference library's
  /// testing::FaultInjectingOperator).  The wrapper owns the inner operator.
  std::function<std::unique_ptr<core::LinearOperator>(
      std::unique_ptr<core::LinearOperator>)>
      wrap_operator;
};

/// Solution of the quasispecies problem in concentration form: the shared
/// outcome fields (eigenvalue, iterations, residual, converged, stalled,
/// structured failure after all recovery attempts, checkpoint statistics)
/// plus the concentration vectors and the recovery count.
struct QuasispeciesResult : IterationResult {
  std::vector<double> concentrations; ///< x_R, 1-norm normalised, length 2^nu.
  std::vector<double> class_concentrations;  ///< [Gamma_0..Gamma_nu].
  unsigned recovery_attempts = 0;     ///< Restarts the degradation rule used.
  ShiftScheduleReport shift_schedule; ///< The shift schedule of the last run.
  double dropped_mass = 0.0;          ///< Of the last run (PowerResult).
  CheckPath check_path = CheckPath::passes;  ///< Of the last run (PowerResult).
};

/// Solves for a general landscape (shifted power iteration on Fmmp).
QuasispeciesResult solve(const core::MutationModel& model,
                         const core::Landscape& landscape,
                         const SolveOptions& options = {});

/// Solves for an error-class landscape through the exact reduction; the
/// uniform mutation model with error rate p is implied. `options` is unused
/// beyond validation (the reduced solve is direct) and exists for signature
/// symmetry.
QuasispeciesResult solve(double p, const core::ErrorClassLandscape& landscape);

}  // namespace qs::solvers
