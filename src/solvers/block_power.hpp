// Block power (subspace) iteration with Rayleigh-Ritz extraction.
//
// The deflated power iteration (reference/deflation, an oracle) computes
// eigenpairs one at a time: each additional pair costs a full new power-iteration run, and
// every product streams one vector through the banded Fmmp kernel.  Block
// subspace iteration advances an m-column panel X through Y = W X instead —
// one banded *panel* product (core/fmmp.hpp apply_panel) amortises the
// memory traffic of the butterfly across all m columns — and extracts all k
// leading eigenpairs at once from the Rayleigh-Ritz projection
//
//   A = X^T W X  (m x m, symmetric),    A = V diag(theta) V^T,
//
// whose Ritz values theta approximate the leading eigenvalues and whose
// Ritz vectors X V approximate the eigenvectors.  Convergence of pair j is
// governed by lambda_m / lambda_j (the *block* gap), which for clustered
// leading eigenvalues is far better than the lambda_1/lambda_0 of the plain
// power iteration.
//
// Requires the symmetric formulation (Eq. (4)): the projection is then a
// genuine symmetric eigenproblem and the Ritz residuals are backward-error
// bounds.  The small m x m eigenproblems go through linalg/jacobi_eigen.
//
// Resilience: the subspace loop runs through solvers/iteration_driver — one
// driver iteration per Rayleigh-Ritz extraction, observed on the worst of
// the k wanted residuals — so the solver supports periodic
// checkpoint/resume (the checkpoint stores the full interleaved n x m
// panel, aux = m), stall windows, and NaN/Inf health guards with structured
// SolverFailure reporting.
#pragma once

#include <vector>

#include "core/fmmp.hpp"
#include "parallel/engine.hpp"
#include "solvers/iteration_driver.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::solvers {

/// Tuning knobs for the block power iteration: the shared iteration block
/// (`iterations` counts panel products; `residual_check_every` is ignored —
/// the extraction cadence is `ritz_every`) plus the subspace knobs.
struct BlockPowerOptions : IterationOptions {
  BlockPowerOptions() {
    tolerance = 1e-10;
    max_iterations = 100000;
    stall_window = 0;
  }

  /// Number of eigenpairs wanted (k >= 1).  The convergence threshold
  /// (`tolerance`) applies to the per-pair relative Ritz residual
  /// ||W u - theta u||_2 / |theta| for each of the k wanted pairs.
  unsigned k = 2;

  /// Panel width m >= k; 0 picks the smallest SIMD-friendly width >= k
  /// (2, 4, 8, then multiples of 8).  Extra guard columns beyond k improve
  /// the convergence of the k-th pair (the block gap becomes
  /// lambda_m / lambda_{k-1}).
  std::size_t block = 0;

  /// Rayleigh-Ritz extraction (and residual check) cadence; between
  /// extractions the panel advances with plain re-orthonormalised products.
  unsigned ritz_every = 1;

  /// Tiling plan for the banded kernels (see transforms/plan_autotune).
  transforms::BlockedPlan plan;
};

/// Outcome of a block power run: the shared outcome fields (`eigenvalue`
/// and `residual` mirror the leading pair / the worst wanted pair;
/// `iterations` counts panel products with W) plus the per-pair spectrum.
struct BlockPowerResult : IterationResult {
  /// The k Ritz values, descending (approximating lambda_0 >= ... >=
  /// lambda_{k-1} of W).
  std::vector<double> eigenvalues;

  /// The k Ritz vectors in the operator's (symmetric) formulation, 2-norm
  /// normalised, column j belonging to eigenvalues[j].  The concentration
  /// vector of the right formulation is x_i proportional to v_i / sqrt(f_i).
  std::vector<std::vector<double>> eigenvectors;

  /// Relative Ritz residuals at exit, one per returned pair.
  std::vector<double> residuals;
};

/// Runs block subspace iteration on `op` (which must use the symmetric
/// formulation) and returns its k leading eigenpairs.  The starting panel is
/// deterministic: column 0 is the paper's landscape start mapped to the
/// symmetric formulation, the guard columns a fixed pseudo-random basis.
/// Requires options.k >= 1 and, when set, options.block >= options.k.
BlockPowerResult block_power_iteration(const core::FmmpOperator& op,
                                       const BlockPowerOptions& options = {});

/// Resumes a block power run from a checkpoint written by a previous run
/// with the same operator and options.  The checkpointed panel (interleaved
/// n x m, symmetric scale; the checkpoint's aux field records m) is taken
/// verbatim, so on the serial backend the per-extraction residual
/// trajectory from the checkpoint onward is bit-identical to the
/// uninterrupted run.  Refuses checkpoints written by a different solver
/// kind or with a mismatched panel width.
BlockPowerResult resume_block_power_iteration(
    const core::FmmpOperator& op, const io::SolverCheckpoint& checkpoint,
    const BlockPowerOptions& options = {});

/// Convenience wrapper: builds the symmetric-formulation Fmmp operator for
/// (model, landscape) and returns the k leading eigenpairs of W = Q F with
/// the eigenvectors converted to concentration vectors of the right
/// formulation (1-norm normalised, dominant vector nonnegative).  Requires a
/// symmetric mutation model.
BlockPowerResult top_k_spectrum(const core::MutationModel& model,
                                const core::Landscape& landscape,
                                const BlockPowerOptions& options = {});

/// Checkpoint-resuming variant of top_k_spectrum.
BlockPowerResult resume_top_k_spectrum(const core::MutationModel& model,
                                       const core::Landscape& landscape,
                                       const io::SolverCheckpoint& checkpoint,
                                       const BlockPowerOptions& options = {});

}  // namespace qs::solvers
