#include "reference/deflation.hpp"

#include <cmath>

#include "core/fmmp.hpp"
#include "linalg/vector_ops.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::solvers {

double SpectralGap::predicted_iterations(double ratio, double decades) {
  require(ratio > 0.0 && ratio < 1.0,
          "predicted_iterations: ratio must be in (0, 1)");
  require(decades > 0.0, "predicted_iterations: decades must be positive");
  return decades * std::log(10.0) / -std::log(ratio);
}

SpectralGap spectral_gap(const core::MutationModel& model,
                         const core::Landscape& landscape,
                         const GapOptions& options) {
  require(model.symmetric() && model.kind() != core::MutationKind::grouped,
          "spectral_gap: requires a symmetric 2x2-factor mutation model");
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric);
  const std::size_t n = static_cast<std::size_t>(op.dimension());

  // Dominant pair in the symmetric formulation.
  PowerOptions popts;
  popts.tolerance = options.tolerance;
  popts.max_iterations = options.max_iterations;
  const auto dominant = power_iteration(op, landscape_start(landscape), popts);
  require(dominant.converged, "spectral_gap: dominant power iteration failed");

  // Orthonormalise the dominant eigenvector (power_iteration returns it
  // 1-norm normalised).
  std::vector<double> x0(dominant.eigenvector);
  linalg::normalize2(x0);

  // Deflated power iteration: project x0 out after every product.  The
  // projector is exact in the symmetric formulation because eigenvectors of
  // the symmetric W are orthogonal.
  std::vector<double> x1(n), y(n);
  Xoshiro256 rng(0xdef1a7edULL);
  for (double& v : x1) v = rng.uniform(-1.0, 1.0);
  linalg::axpy(-linalg::dot(x0, x1), x0, x1);
  linalg::normalize2(x1);

  SpectralGap gap;
  gap.lambda0 = dominant.eigenvalue;
  for (unsigned it = 1; it <= options.max_iterations; ++it) {
    op.apply(x1, y);
    linalg::axpy(-linalg::dot(x0, y), x0, y);  // deflate drift back to x0
    const double lambda = linalg::dot(x1, y);
    double res2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = y[i] - lambda * x1[i];
      res2 += r * r;
    }
    gap.lambda1 = lambda;
    const double rel = std::sqrt(res2) / std::max(std::abs(lambda), 1e-300);
    linalg::copy(y, x1);
    linalg::normalize2(x1);
    if (rel <= options.tolerance) break;
  }
  require(gap.lambda1 < gap.lambda0,
          "spectral_gap: deflation failed to separate the eigenvalues");
  return gap;
}

}  // namespace qs::solvers
