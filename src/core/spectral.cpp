#include "core/spectral.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "transforms/fwht.hpp"

namespace qs::core {
namespace {

void require_hadamard_diagonalisable(const MutationModel& model) {
  require(model.kind() != MutationKind::grouped && model.symmetric(),
          "spectral operation requires a symmetric 2x2-factor mutation model");
}

}  // namespace

void apply_q_spectral(const MutationModel& model, std::span<double> v) {
  require_hadamard_diagonalisable(model);
  require(v.size() == model.dimension(), "apply_q_spectral: dimension mismatch");
  transforms::fwht(v);
  // Q = 2^{-nu} H Lambda H; fold the 1/N into the diagonal pass.
  const double inv_n = 1.0 / static_cast<double>(v.size());
  for (seq_t w = 0; w < v.size(); ++w) {
    v[w] *= model.walsh_eigenvalue(w) * inv_n;
  }
  transforms::fwht(v);
}

double q_min_eigenvalue(const MutationModel& model) {
  require_hadamard_diagonalisable(model);
  // The all-ones Walsh index has the smallest eigenvalue because every
  // factor contributes its sub-unit eigenvalue (1 - 2 p_k) in (0, 1).
  return model.walsh_eigenvalue(model.dimension() - 1);
}

double conservative_shift(const MutationModel& model, const Landscape& landscape) {
  require(model.dimension() == landscape.dimension(),
          "conservative_shift: dimension mismatch");
  return q_min_eigenvalue(model) * landscape.min_fitness();
}

double conservative_shift(const MutationModel& model,
                          const ErrorClassLandscape& landscape) {
  require(model.nu() == landscape.nu(), "conservative_shift: dimension mismatch");
  double fmin = landscape.value(0);
  for (unsigned k = 1; k <= landscape.nu(); ++k) {
    fmin = std::min(fmin, landscape.value(k));
  }
  return q_min_eigenvalue(model) * fmin;
}

double dominant_upper_bound(const Landscape& landscape) {
  return landscape.max_fitness();
}

}  // namespace qs::core
