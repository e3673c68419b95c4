// The paper's Algorithm 1 and Algorithm 2 for 2x2-factor Kronecker
// butterflies, verbatim.
//
// Algorithm 1 sweeps the nu levels serially, in either level order;
// Algorithm 2 runs one engine launch per level with the GPU index map.
// They are test oracles and bench baselines only: every product in the
// library runs the banded kernel of transforms/blocked_butterfly, which
// computes the same bits.
#pragma once

#include <span>

#include "parallel/engine.hpp"
#include "transforms/butterfly.hpp"

namespace qs::transforms {

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
