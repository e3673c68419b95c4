#include "stochastic/sampling.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace qs::stochastic {

std::uint64_t binomial_sample(Xoshiro256& rng, std::uint64_t n, double prob) {
  require(prob >= 0.0 && prob <= 1.0, "binomial_sample: prob must be in [0, 1]");
  if (n == 0 || prob == 0.0) return 0;
  if (prob == 1.0) return n;

  // Work with p <= 1/2 and mirror at the end (keeps both branches stable).
  const bool mirrored = prob > 0.5;
  const double p = mirrored ? 1.0 - prob : prob;
  const double np = static_cast<double>(n) * p;

  std::uint64_t k;
  if (np < 30.0) {
    // Inverse-CDF walk over the PMF recurrence
    // P(k+1) = P(k) * (n-k)/(k+1) * p/(1-p).
    const double ratio = p / (1.0 - p);
    double pmf = std::pow(1.0 - p, static_cast<double>(n));  // P(0)
    double cdf = pmf;
    double u = rng.uniform();
    k = 0;
    while (u > cdf && k < n) {
      pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1) * ratio;
      cdf += pmf;
      ++k;
      if (pmf < 1e-300 && cdf >= 1.0 - 1e-12) break;  // numerical tail guard
    }
  } else {
    // Normal approximation with continuity correction; npq >= 15 here, so
    // the approximation error is negligible next to sampling noise.
    const double mean = np;
    const double stddev = std::sqrt(np * (1.0 - p));
    // Box-Muller from two uniforms.
    const double u1 = std::max(rng.uniform(), 1e-300);
    const double u2 = rng.uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double value = std::round(mean + stddev * z);
    k = static_cast<std::uint64_t>(std::clamp(value, 0.0, static_cast<double>(n)));
  }
  return mirrored ? n - k : k;
}

void multinomial_sample_into(Xoshiro256& rng, std::uint64_t n,
                             std::span<const double> probabilities,
                             std::span<std::uint64_t> counts) {
  require(!probabilities.empty(), "multinomial_sample: empty probability vector");
  require(counts.size() == probabilities.size(),
          "multinomial_sample: counts/probabilities size mismatch");
  double total = 0.0;
  std::size_t last_positive = probabilities.size();
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    require(probabilities[i] >= 0.0,
            "multinomial_sample: probabilities must be nonnegative");
    total += probabilities[i];
    if (probabilities[i] > 0.0) last_positive = i;
  }
  require(std::abs(total - 1.0) < 1e-6,
          "multinomial_sample: probabilities must sum to 1");
  // total ~ 1 guarantees at least one strictly positive category.
  require(last_positive < probabilities.size(),
          "multinomial_sample: no positive-probability category");

  std::fill(counts.begin(), counts.end(), std::uint64_t{0});

  // Conditional-binomial decomposition: category i receives
  // Bin(remaining, p_i / remaining_mass).  The loop stops at the last
  // positive-probability category, which absorbs whatever floating-point
  // fall-through (an early remaining_mass underflow, conditionals rounded
  // below 1) left undistributed — never a zero-probability tail category.
  std::uint64_t remaining = n;
  double remaining_mass = total;
  for (std::size_t i = 0; i < last_positive && remaining > 0; ++i) {
    if (probabilities[i] <= 0.0) continue;
    const double conditional =
        std::clamp(probabilities[i] / remaining_mass, 0.0, 1.0);
    counts[i] = binomial_sample(rng, remaining, conditional);
    remaining -= counts[i];
    remaining_mass -= probabilities[i];
    if (remaining_mass <= 0.0) break;
  }
  counts[last_positive] += remaining;
}

std::vector<std::uint64_t> multinomial_sample(Xoshiro256& rng, std::uint64_t n,
                                              std::span<const double> probabilities) {
  std::vector<std::uint64_t> counts(probabilities.size(), 0);
  multinomial_sample_into(rng, n, probabilities, counts);
  return counts;
}

std::size_t categorical_sample(Xoshiro256& rng, std::span<const double> weights) {
  require(!weights.empty(), "categorical_sample: empty weight vector");
  double total = 0.0;
  std::size_t last_positive = weights.size();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    require(weights[i] >= 0.0, "categorical_sample: weights must be nonnegative");
    total += weights[i];
    if (weights[i] > 0.0) last_positive = i;
  }
  require(total > 0.0, "categorical_sample: all weights are zero");
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;  // zero-weight indices are never returned
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  // Floating-point fall-through (u marginally above the sequentially
  // subtracted total): land on the last positive-weight index, not on a
  // possibly zero-weight final entry.
  return last_positive;
}

void sanitize_distribution(std::span<double> probabilities) {
  require(!probabilities.empty(), "sanitize_distribution: empty vector");
  // Clamp BEFORE summing: the clamped mass then never enters the
  // normaliser, so the rescaled entries sum to 1 exactly (to rounding).
  const std::size_t n = probabilities.size();
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kNormaliserBlock) {
    const std::size_t end = std::min(n, b + kNormaliserBlock);
    double block = 0.0;
    for (std::size_t i = b; i < end; ++i) {
      double& v = probabilities[i];
      if (!(v > 0.0)) v = 0.0;  // negatives, -0.0, and NaN carry no mass
      block += v;
    }
    total += block;
  }
  require(total > 0.0 && std::isfinite(total),
          "sanitize_distribution: no positive mass");
  const double inv = 1.0 / total;
  for (double& v : probabilities) v *= inv;
}

}  // namespace qs::stochastic
