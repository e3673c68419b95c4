// The paper's grouped Kronecker algorithms verbatim, and the dense
// materialisation of a KroneckerProduct.
//
// apply_kronecker is the serial factor-by-factor sweep (Algorithm 1's
// grouped form) and apply_kronecker_per_group one engine launch per group
// (Algorithm 2's).  They are test oracles and bench baselines only: every
// grouped product in the library runs transforms::apply_blocked_kronecker,
// which computes the same bits.
#pragma once

#include <span>

#include "linalg/dense_matrix.hpp"
#include "parallel/engine.hpp"
#include "transforms/kronecker.hpp"

namespace qs::transforms {

/// In-place mat-vec v <- K v, one serial sweep per factor.
/// Requires v.size() == kp.dimension().
void apply_kronecker(std::span<double> v, const KroneckerProduct& kp);

/// Per-group reference product v <- K v: one engine launch per group factor,
/// each work item contracting one strided tuple of the group's size (the
/// generalisation of a butterfly pair).  Bit-identical to apply_kronecker.
/// Requires v.size() == kp.dimension().
void apply_kronecker_per_group(std::span<double> v, const KroneckerProduct& kp,
                               const parallel::Engine& engine);

/// Dense Kronecker product A (x) B (small operands).
linalg::DenseMatrix kronecker_dense(const linalg::DenseMatrix& a,
                                    const linalg::DenseMatrix& b);

/// Materialises the full dense matrix of `kp`; requires kp.dimension() small
/// enough to allocate.
linalg::DenseMatrix to_dense(const KroneckerProduct& kp);

}  // namespace qs::transforms
