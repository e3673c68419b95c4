// Matrix-free Krylov solvers for symmetric systems: the inner solves of the
// shift-and-invert oracles (reference/shift_invert.hpp).
//
// The paper's Section 3 derives a Theta(N log2 N) shift-and-invert product
// for Q alone and names the analogous solver for W = Q F - mu I "one of the
// topics of our current work".  These solvers provide that building block:
// conjugate gradients for positive definite shifts and MINRES for the
// indefinite shifts that arise when mu sits inside the spectrum (the
// interesting case for inverse iteration towards the dominant eigenpair).
// Both are matrix-free — the operator and the optional preconditioner enter
// as callbacks, so the Fmmp product (and the FWHT-based Q^{-1}
// preconditioner) plug in directly.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace qs::linalg {

/// y = A x callback; x and y never alias and have the system dimension.
using ApplyFn = std::function<void(std::span<const double> x, std::span<double> y)>;

/// Options shared by the Krylov solvers.
struct KrylovOptions {
  double tolerance = 1e-12;    ///< Relative residual ||b - A x|| / ||b|| target.
  unsigned max_iterations = 10000;
  /// Optional work vectors, resized here and reused across calls (the outer
  /// loop of an eigensolver passes one per run); null allocates per call.
  std::vector<double>* work = nullptr;
};

/// Outcome of a Krylov solve.
struct KrylovResult {
  unsigned iterations = 0;
  double relative_residual = 0.0;  ///< Recurrence residual at exit.
  bool converged = false;
};

/// Preconditioned conjugate gradients for symmetric positive definite A.
/// Solves A x = b starting from x (overwritten with the solution).
/// `preconditioner`, if given, applies an SPD approximation of A^{-1}.
/// Requires matching dimensions; behaviour is undefined (divergence, not
/// UB in the language sense) if A is not SPD — use minres() then.
KrylovResult conjugate_gradient(const ApplyFn& apply, std::span<const double> b,
                                std::span<double> x,
                                const KrylovOptions& options = {},
                                const ApplyFn& preconditioner = nullptr);

/// MINRES for symmetric (possibly indefinite) A: minimises ||b - A x||_2
/// over the Krylov space. Solves A x = b starting from x (overwritten).
KrylovResult minres(const ApplyFn& apply, std::span<const double> b,
                    std::span<double> x, const KrylovOptions& options = {});

}  // namespace qs::linalg
