// Shift-and-invert eigensolvers for the full problem matrix W = Q F
// (the "current work" the paper announces at the end of Section 3).
//
// The symmetric formulation W_S = F^{1/2} Q F^{1/2} makes (W_S - mu I) x = b
// a symmetric linear system solvable matrix-free with Krylov methods at
// Theta(N log2 N) per inner iteration (the operator is one Fmmp product):
//
//   * mu below the spectrum (e.g. mu <= (1-2p)^nu f_min, the paper's
//     conservative bound) keeps W_S - mu I positive definite -> conjugate
//     gradients, optionally preconditioned with the *exact* inverse of the
//     mutation part, M^{-1} = F^{-1/2} Q^{-1} F^{-1/2}, available in closed
//     form through the FWHT diagonalisation of Section 2;
//   * mu inside the spectrum (inverse iteration towards interior or
//     dominant eigenpairs) makes the system indefinite -> MINRES.
//
// On top of the solve, this module provides inverse iteration (eigenpair
// nearest a fixed shift) and Rayleigh quotient iteration (cubically
// convergent refinement) for W, plus the smallest eigenpair — which
// validates the paper's lower bound lambda_min >= (1-2p)^nu f_min.
//
// These are reference oracles, not production solvers: no production path
// needs them, and RQI wins no row of the eigensolver grid
// (BENCH_eigensolvers.json): the power iteration is faster on the random
// and p = 0.034 rows, and at p = 0.035, where RQI outruns it, RQI returns
// lambda_1 (see rayleigh_quotient_iteration_w).  They keep their argument
// checks and a NaN/Inf guard (SolverFailure::non_finite), but no
// checkpoint/resume, stall window or cancellation.
//
// All methods require a symmetric mutation model (uniform or symmetric
// per-site); results are reported as concentrations (right formulation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "parallel/engine.hpp"
#include "reference/krylov.hpp"
#include "solvers/solver_failure.hpp"

namespace qs::core {

/// v <- (Q - mu I)^{-1} v via the eigendecomposition (two FWHTs and a
/// diagonal scaling): the paper's Theta(N log2 N) shift-and-invert product
/// for Q alone (Section 3), and the exact mutation-part preconditioner of
/// the CG path.  Requires a symmetric 2x2-factor model and mu bounded away
/// from every eigenvalue of Q (|lambda_w - mu| >= 1e-300 for all w); the
/// smallest eigenvalue is prod_k (1 - 2 p_k), so any mu strictly below it
/// is always safe.
void apply_q_shift_invert(const MutationModel& model, double mu, std::span<double> v);

}  // namespace qs::core

namespace qs::solvers {

/// Options for the shift-and-invert oracles: the outer tolerance and step
/// cap, and the inner linear-solve control.
struct ShiftInvertOptions {
  double tolerance = 1e-12;  ///< Outer relative eigen-residual target.
  unsigned max_outer_iterations = 60;
  linalg::KrylovOptions inner;      ///< Inner linear-solve control.
  bool use_q_preconditioner = true; ///< Precondition CG with F^{-1/2}Q^{-1}F^{-1/2}.
  /// Fan-out backend for the products and sums; null means serial.  The
  /// sums are tree-ordered on fixed row blocks, so an engine never changes
  /// the bits.
  const parallel::Engine* engine = nullptr;
};

/// Eigenpair of W with solver statistics.
struct WEigenResult {
  double eigenvalue = 0.0;
  double residual = 0.0;                ///< Relative eigen-residual at exit.
  bool converged = false;
  SolverFailure failure = SolverFailure::none;
  std::vector<double> concentrations;  ///< x_R, 1-norm normalised.
  unsigned outer_iterations = 0;
  std::size_t inner_iterations_total = 0;
  std::size_t products = 0;  ///< Products with W_S, warm-up included.
};

/// Solves (W_S - mu I) x = b matrix-free.  Selects CG when mu is provably
/// below the spectrum (mu < (1-2p)^nu f_min) and MINRES otherwise; the Q
/// preconditioner applies to the CG path only.  x holds the initial guess
/// on entry and the solution on exit.
linalg::KrylovResult solve_shifted_symmetric_w(const core::MutationModel& model,
                                               const core::Landscape& landscape,
                                               double mu, std::span<const double> b,
                                               std::span<double> x,
                                               const linalg::KrylovOptions& options = {},
                                               bool use_q_preconditioner = true);

/// Inverse iteration: converges to the eigenpair of W whose eigenvalue is
/// nearest the fixed shift mu. `start` (concentration scale) may be empty.
WEigenResult inverse_iteration_w(const core::MutationModel& model,
                                 const core::Landscape& landscape, double mu,
                                 std::span<const double> start = {},
                                 const ShiftInvertOptions& options = {});

/// Rayleigh quotient iteration from `start` (concentration scale; empty
/// selects the landscape start).  Twenty power products first pull the
/// iterate towards the dominant eigenvector; RQI then converges, cubically
/// (typically 3-5 outer steps), to the pair whose eigenvalue is nearest the
/// warm-up's Rayleigh quotient.  Away from the error threshold that is
/// lambda_0.  Near it, lambda_0 and lambda_1 are close, twenty products do
/// not separate them, and the quotient lands nearer lambda_1: at nu = 20,
/// single-peak (2 / 1), tol 1e-10, RQI returns 0.999985 at p = 0.034
/// (lambda_0 = 1.02863) and 0.999953 at p = 0.035 (lambda_0 = 1.00945), each
/// with a small residual.  Check the eigenvalue against another solver.
WEigenResult rayleigh_quotient_iteration_w(const core::MutationModel& model,
                                           const core::Landscape& landscape,
                                           std::span<const double> start = {},
                                           const ShiftInvertOptions& options = {});

/// The *smallest* eigenpair of W via inverse iteration with mu = 0
/// (W_S is positive definite, so plain CG applies).  Validates the paper's
/// bound lambda_min >= (1-2p)^nu f_min.
WEigenResult smallest_eigenpair_w(const core::MutationModel& model,
                                  const core::Landscape& landscape,
                                  const ShiftInvertOptions& options = {});

}  // namespace qs::solvers
