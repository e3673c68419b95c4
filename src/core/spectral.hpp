// Spectral operations on the mutation matrix Q (Sections 2 and 3).
//
// Symmetric 2x2-factor models are diagonalised by the Hadamard matrix:
//   Q = V Lambda V,  V = 2^{-nu/2} H,  Lambda_ww = prod_{k in w} (1 - 2 p_k)
// (for the uniform model Lambda_ww = (1-2p)^{popcount(w)}).  This yields:
//   * an alternative exact product Q v via two FWHTs (cross-validates Fmmp),
//   * the Theta(N log2 N) shift-and-invert product
//       (Q - mu I)^{-1} v = V (Lambda - mu I)^{-1} V v
//     that the paper proposes as the building block of inverse iteration
//     (an oracle now: reference/shift_invert.hpp),
//   * the conservative power-iteration shift mu = (1-2p)^nu * f_min derived
//     from ||Q^{-1}||_1 = (1-2p)^{-nu} (Section 3).
#pragma once

#include <span>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"

namespace qs::core {

/// v <- Q v via the eigendecomposition (two FWHTs and a diagonal scaling).
/// Requires a symmetric 2x2-factor model and v.size() == model.dimension().
void apply_q_spectral(const MutationModel& model, std::span<double> v);

/// Smallest eigenvalue of Q: prod_k (1 - 2 p_k) = (1-2p)^nu for the uniform
/// model. Requires a symmetric 2x2-factor model.
double q_min_eigenvalue(const MutationModel& model);

/// The paper's conservative convergence-acceleration shift for the power
/// iteration on W = Q F:  mu = lambda_min(Q) * f_min <= lambda_min(W).
double conservative_shift(const MutationModel& model, const Landscape& landscape);

/// Same bound from an error-class landscape (without expanding it).
double conservative_shift(const MutationModel& model,
                          const ErrorClassLandscape& landscape);

/// Upper bound on the dominant eigenvalue: lambda_0 <= ||W||_1 <= f_max
/// (Section 3).
double dominant_upper_bound(const Landscape& landscape);

}  // namespace qs::core
