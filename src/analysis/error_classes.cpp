#include "analysis/error_classes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/binomial.hpp"
#include "support/contracts.hpp"

namespace qs::analysis {

std::vector<double> class_concentrations(unsigned nu, std::span<const double> x,
                                         seq_t reference) {
  require(x.size() == sequence_count(nu), "class_concentrations: size must be 2^nu");
  require(reference < x.size(), "class_concentrations: reference out of range");
  std::vector<double> out(nu + 1, 0.0);
  // d_H(i, ref) = popcount(high bits of i ^ ref) + popcount(low byte of
  // i ^ ref): the high part is constant over each aligned 256-element
  // block and the low part comes from a table built against the
  // reference's low byte, so the baseline x86-64 build (no POPCNT) does
  // one bit count per block instead of one libgcc call per element.  The
  // elements still enter each bin in ascending index order, so every bin
  // is the same sum, bit for bit, as the one-element-at-a-time loop.
  constexpr seq_t kBlock = 256;
  const seq_t n = x.size();
  const seq_t width = n < kBlock ? n : kBlock;
  std::uint8_t low_distance[kBlock];
  for (seq_t lo = 0; lo < width; ++lo) {
    low_distance[lo] =
        static_cast<std::uint8_t>(hamming_distance(lo, reference & (kBlock - 1)));
  }
  for (seq_t base = 0; base < n; base += width) {
    double* bins = out.data() + hamming_distance(base, reference & ~(kBlock - 1));
    const double* block = x.data() + base;
    for (seq_t lo = 0; lo < width; ++lo) bins[low_distance[lo]] += block[lo];
  }
  return out;
}

std::vector<double> class_cardinalities(unsigned nu) {
  BinomialRow row(nu);
  std::vector<double> out(nu + 1);
  for (unsigned k = 0; k <= nu; ++k) out[k] = row.value(k);
  return out;
}

std::vector<double> uniform_class_concentrations(unsigned nu) {
  std::vector<double> out = class_cardinalities(nu);
  const double n = std::ldexp(1.0, static_cast<int>(nu));  // 2^nu
  for (double& v : out) v /= n;
  return out;
}

std::vector<seq_t> class_members(unsigned nu, unsigned k, seq_t reference) {
  require(k <= nu, "class_members: class index k must satisfy k <= nu");
  require(nu <= 30, "class_members: nu too large to materialise");
  std::vector<seq_t> out;
  FixedWeightMasks(nu, k).for_each([&](seq_t m) { out.push_back(m ^ reference); });
  std::sort(out.begin(), out.end());
  return out;
}

double population_entropy(std::span<const double> x) {
  double h = 0.0;
  for (double v : x) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

}  // namespace qs::analysis
