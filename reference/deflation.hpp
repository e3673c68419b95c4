// Deflated power iteration: the second eigenpair and convergence
// diagnostics — a reference oracle.
//
// Section 3 ties the power iteration's convergence rate to lambda_1 /
// lambda_0 (or (lambda_1 - mu)/(lambda_0 - mu) with the shift).  Computing
// lambda_1 itself — by power iteration on the complement of the dominant
// eigenvector — turns that statement into a *predictor*: given a target
// residual, how many iterations will a solve need, and how much does the
// conservative shift buy?  Requires the symmetric formulation so the
// deflation projector is orthogonal.  Block power (solvers/block_power.hpp)
// is the production path to the leading pairs; tests check it against this.
#pragma once

#include <span>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "solvers/power_iteration.hpp"

namespace qs::solvers {

/// The two leading eigenvalues and derived convergence predictions.
struct SpectralGap {
  double lambda0 = 0.0;
  double lambda1 = 0.0;

  /// Convergence ratio of the plain power iteration.
  double ratio() const { return lambda1 / lambda0; }

  /// Convergence ratio with shift mu.
  double shifted_ratio(double mu) const { return (lambda1 - mu) / (lambda0 - mu); }

  /// Iterations predicted to reduce the eigenvector error by `decades`
  /// orders of magnitude at the given ratio.
  static double predicted_iterations(double ratio, double decades);
};

/// Options for the gap computation.
struct GapOptions {
  double tolerance = 1e-11;
  unsigned max_iterations = 1000000;
};

/// Computes lambda_0 and lambda_1 of W = Q F by power iteration plus
/// deflated power iteration on the symmetric formulation.  Requires a
/// symmetric 2x2-factor mutation model.
SpectralGap spectral_gap(const core::MutationModel& model,
                         const core::Landscape& landscape,
                         const GapOptions& options = {});

}  // namespace qs::solvers
