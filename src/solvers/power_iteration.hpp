// Power iteration for the dominant eigenpair of an implicit operator
// (Section 3 of the paper).
//
// The paper selects the power iteration over Lanczos/Arnoldi (fewer stored
// vectors) and over randomised sketching (accuracy): with W positive
// definite and Perron-Frobenius applicable, lambda_0 > lambda_1 >= ... > 0
// guarantees convergence.  The spectral shift mu (W - mu I) improves the
// convergence ratio from lambda_1/lambda_0 to (lambda_1-mu)/(lambda_0-mu);
// the conservative choice mu = (1-2p)^nu f_min from core/spectral.hpp is
// always admissible.
//
// Resilience: the loop runs through solvers/iteration_driver, which owns the
// periodic checkpointing (write-to-temp-then-rename, checksummed), the stall
// window, and the NaN/Inf health guards; a resumed run continues the
// original residual trajectory bit for bit on the serial backend, and a
// non-finite iterate is detected at residual-check cadence and reported as
// a structured SolverFailure instead of spinning max_iterations on garbage.
#pragma once

#include <concepts>
#include <span>
#include <utility>
#include <vector>

#include "core/operators.hpp"
#include "io/binary_io.hpp"
#include "solvers/iteration_driver.hpp"

namespace qs::solvers {

/// Tuning knobs for the power iteration: the shared iteration block (see
/// solvers/iteration_driver.hpp for tolerance, max_iterations, residual
/// cadence, stall window, engine, workspace, and checkpointing) plus the
/// spectral shift.
struct PowerOptions : IterationOptions {
  /// Spectral shift mu: iterates with (W - mu I). Must keep lambda_0 - mu
  /// the dominant eigenvalue (any mu <= lambda_min(W) qualifies).
  double shift = 0.0;
};

/// Outcome of a power iteration run: the shared outcome fields (eigenvalue,
/// iterations, residual, converged/stalled/failure, checkpoint statistics)
/// plus the eigenvector.
struct PowerResult : IterationResult {
  std::vector<double> eigenvector;  ///< 1-norm normalised, nonnegative.
};

/// Runs the (shifted) power iteration on `op` starting from `start`
/// (empty selects the uniform vector).  The start is 1-norm normalised
/// with the tree-ordered norm, once: a start already normalised to within
/// rounding, such as landscape_start's, is used verbatim.
///
/// The paper's recommended start is the landscape itself,
/// s = diag(F)/||diag(F)||_1, since the dominant eigenvector of W = Q F
/// resembles F (the dominant eigenvector of Q alone is the uniform vector).
PowerResult power_iteration(const core::LinearOperator& op,
                            std::span<const double> start = {},
                            const PowerOptions& options = {});

namespace detail {
PowerResult power_iteration_owned(const core::LinearOperator& op,
                                  std::vector<double> start,
                                  const PowerOptions& options);
}  // namespace detail

/// The same, for a temporary start such as landscape_start(...): its
/// storage becomes the iterate, so the solve allocates (and page-faults)
/// one N-vector fewer.  A template only so that an empty `{}` start keeps
/// selecting the overload above.
template <typename Start>
  requires std::same_as<Start, std::vector<double>>
PowerResult power_iteration(const core::LinearOperator& op, Start&& start,
                            const PowerOptions& options = {}) {
  return detail::power_iteration_owned(op, std::move(start), options);
}

/// Resumes a power iteration from a checkpoint written by a previous run
/// with the same operator and options.  The iterate is taken verbatim (no
/// re-normalisation) and the stall-window state is restored, so on the
/// serial backend the residual trajectory from the checkpoint iteration
/// onward is bit-identical to the uninterrupted run.
PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options = {});

/// The paper's starting vector for a given landscape: diag(F) scaled by
/// the reciprocal of its tree-ordered 1-norm — the same vector a
/// distributed solve starts from (distributed::tree_landscape_start is
/// this function).
std::vector<double> landscape_start(const core::Landscape& landscape);

}  // namespace qs::solvers
