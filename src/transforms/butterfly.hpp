// Generic 2x2-factor Kronecker butterfly transforms.
//
// Every mutation matrix of the form Q = M_{nu-1} (x) ... (x) M_0 with 2x2
// factors (uniform error rate, per-site error rates, asymmetric 0->1 / 1->0
// rates) acts on a vector through nu butterfly levels: the level of stride
// 2^k applies the factor M_k across bit k of the sequence index.  This is
// the structural heart of the paper's Fmmp (Section 2.1) in its full
// per-site generality (Section 2.2).
//
// The transforms below are the paper's Algorithm 1 (serial level sweeps, in
// either level order) and Algorithm 2 (one engine launch per level with the
// GPU index map) verbatim.  They are test oracles and bench baselines only:
// every product in the library runs the banded kernel of
// transforms/blocked_butterfly, which computes the same bits.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "parallel/engine.hpp"

namespace qs::transforms {

/// A 2x2 real matrix [[m00, m01], [m10, m11]] acting on one sequence
/// position: entry (r, c) is the probability that the position reads r after
/// mutation given it was c before (column-stochastic for valid models).
struct Factor2 {
  double m00 = 1.0;
  double m01 = 0.0;
  double m10 = 0.0;
  double m11 = 1.0;

  /// The symmetric uniform-error-rate factor [[1-p, p], [p, 1-p]].
  static constexpr Factor2 uniform(double p) { return {1.0 - p, p, p, 1.0 - p}; }

  /// General single-site process from the two flip probabilities:
  /// p01 = P(0 -> 1), p10 = P(1 -> 0). Column stochastic by construction.
  static constexpr Factor2 asymmetric(double p01, double p10) {
    return {1.0 - p01, p10, p01, 1.0 - p10};
  }

  /// Maximum column-sum deviation from 1.
  double stochastic_deviation() const;

  /// Transposed factor.
  constexpr Factor2 transposed() const { return {m00, m10, m01, m11}; }
};

/// Order in which the butterfly levels are traversed.  Both orders compute
/// the same product because the level operators commute; they differ in
/// memory traversal, which is what the paper's Eq. (9) vs Eq. (10)
/// distinction amounts to for an iterative implementation.
enum class LevelOrder {
  ascending,   ///< stride 1, 2, 4, ... (Eq. (9) unrolled bottom-up)
  descending,  ///< stride N/2, ..., 2, 1 (Eq. (10))
};

/// In-place transform v <- (F_{nu-1} (x) ... (x) F_0) v where factors[k]
/// acts on bit k. Requires v.size() == 2^factors.size().
void apply_butterfly(std::span<double> v, std::span<const Factor2> factors,
                     LevelOrder order = LevelOrder::ascending);

/// Uniform special case: every level applies Factor2::uniform(p); this is
/// the literal Algorithm 1 of the paper.
void apply_uniform_butterfly(std::span<double> v, double p,
                             LevelOrder order = LevelOrder::ascending);

/// In-place single level of stride 2^k: v <- (I (x) F (x) I) v with F on
/// bit k.
void apply_butterfly_level(std::span<double> v, const Factor2& f, unsigned k);

/// The paper's Algorithm 2: the ascending butterfly with one engine launch
/// per level over the N/2 independent pair indices ID, pair (j, j + stride)
/// with j = 2*ID - (ID & (stride - 1)).  Bit-identical to apply_butterfly.
/// Requires v.size() == 2^factors.size().
void apply_butterfly_per_level(std::span<double> v, std::span<const Factor2> factors,
                               const parallel::Engine& engine);

}  // namespace qs::transforms
