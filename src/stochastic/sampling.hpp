// Random sampling primitives for the finite-population simulators.
//
// The deterministic quasispecies equation is the infinite-population limit;
// the paper's reference [11] (Nowak & Schuster) studies how finite
// populations shift the error threshold.  These samplers generate the
// required binomial / multinomial / categorical variates from the library's
// deterministic RNG so simulation runs are reproducible by seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace qs::stochastic {

/// One binomial variate Bin(n, prob).
///
/// Exact inverse-CDF walk when the expected count is small (the common case
/// when distributing a population over 2^nu species); a continuity-corrected
/// normal approximation for large n*p*(1-p) (error far below sampling noise
/// in that regime). Requires prob in [0, 1].
std::uint64_t binomial_sample(Xoshiro256& rng, std::uint64_t n, double prob);

/// Multinomial sample: distributes `n` trials over `probabilities` (which
/// must be nonnegative and sum to ~1) via the conditional-binomial method.
/// Returns counts aligned with the input; counts sum to exactly n.
/// Individuals left over by floating-point fall-through are assigned to the
/// last *positive*-probability category — zero-probability categories never
/// receive mass.
std::vector<std::uint64_t> multinomial_sample(Xoshiro256& rng, std::uint64_t n,
                                              std::span<const double> probabilities);

/// In-place multinomial sample into a caller-owned counts buffer (the
/// ensemble engine draws one multinomial per replica per generation over
/// 2^nu categories — reusing the buffer keeps that hot loop allocation
/// free).  Requires counts.size() == probabilities.size().
void multinomial_sample_into(Xoshiro256& rng, std::uint64_t n,
                             std::span<const double> probabilities,
                             std::span<std::uint64_t> counts);

/// Categorical sample: index i with probability weights[i] / sum(weights).
/// Requires at least one strictly positive weight; never returns a
/// zero-weight index (floating-point fall-through lands on the last
/// positive-weight category).
std::size_t categorical_sample(Xoshiro256& rng, std::span<const double> weights);

/// Block length of every normaliser sum over a distribution: partial sums
/// run left to right inside fixed blocks of this many entries and combine
/// in block order.  sanitize_distribution and the ensemble's batched unpack
/// (which fans the blocks across engine lanes) share it, so both give the
/// same normaliser bit for bit at every dimension.
inline constexpr std::size_t kNormaliserBlock = 4096;

/// Turns an almost-probability vector (nonnegative up to rounding dust,
/// almost 1-norm-1) into an exact sampler input: clamps negative entries to
/// zero FIRST, then renormalises, so the result is nonnegative and sums to
/// 1 to machine precision regardless of how much negative dust the fast
/// mutation product left behind.  The reverse order (normalise, then clamp)
/// re-introduces a sum error of twice the clamped mass and can trip the
/// samplers' |sum - 1| < 1e-6 precondition.  The normaliser is summed in
/// kNormaliserBlock blocks.  Requires positive total mass.
void sanitize_distribution(std::span<double> probabilities);

}  // namespace qs::stochastic
