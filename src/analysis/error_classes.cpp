#include "analysis/error_classes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "support/binomial.hpp"
#include "support/contracts.hpp"

namespace qs::analysis {

std::vector<double> class_concentrations(unsigned nu, std::span<const double> x,
                                         seq_t reference) {
  require(x.size() == sequence_count(nu), "class_concentrations: size must be 2^nu");
  return std::move(panel_class_concentrations(nu, x, 1, reference).front());
}

namespace {

/// bins[k*m + j] += every element of column j at distance k from
/// `reference`, each bin fed in ascending row order.  M > 0 fixes the
/// width at compile time (a single vector, the study width 8), so the row
/// add is unrolled; M = 0 reads m at run time.
///
/// d_H(i, ref) = popcount(high bits of i ^ ref) + popcount(low byte of
/// i ^ ref): the high part is constant over each aligned 256-row block and
/// the low part comes from a table built against the reference's low byte,
/// so the baseline x86-64 build (no POPCNT) does one bit count per block
/// instead of one libgcc call per row.  Each column's elements still enter
/// each bin in ascending index order, so every bin is the same sum, bit for
/// bit, as the one-element-at-a-time loop over that column.
template <std::size_t M>
void bin_rows(seq_t n, const double* panel, std::size_t m, seq_t reference,
              double* bins) {
  if constexpr (M != 0) m = M;
  constexpr seq_t kBlock = 256;
  const seq_t width = n < kBlock ? n : kBlock;
  std::uint8_t low_distance[kBlock];
  for (seq_t lo = 0; lo < width; ++lo) {
    low_distance[lo] =
        static_cast<std::uint8_t>(hamming_distance(lo, reference & (kBlock - 1)));
  }
  for (seq_t base = 0; base < n; base += width) {
    double* block_bins = bins + hamming_distance(base, reference & ~(kBlock - 1)) * m;
    const double* rows = panel + base * m;
    for (seq_t lo = 0; lo < width; ++lo) {
      double* row_bins = block_bins + low_distance[lo] * m;
      const double* row = rows + lo * m;
      for (std::size_t j = 0; j < m; ++j) row_bins[j] += row[j];
    }
  }
}

}  // namespace

std::vector<std::vector<double>> panel_class_concentrations(
    unsigned nu, std::span<const double> panel, std::size_t m, seq_t reference) {
  require(m >= 1 && panel.size() == sequence_count(nu) * m,
          "class_concentrations: size must be 2^nu per column");
  require(reference < sequence_count(nu), "class_concentrations: reference out of range");
  // bins[k*m + j] is [Gamma_k] of column j, so a panel row adds to m
  // adjacent bins.
  std::vector<double> bins((nu + 1) * m, 0.0);
  const seq_t n = sequence_count(nu);
  if (m == 1) {
    bin_rows<1>(n, panel.data(), m, reference, bins.data());
  } else if (m == 8) {
    bin_rows<8>(n, panel.data(), m, reference, bins.data());
  } else {
    bin_rows<0>(n, panel.data(), m, reference, bins.data());
  }
  std::vector<std::vector<double>> out(m, std::vector<double>(nu + 1));
  for (unsigned k = 0; k <= nu; ++k) {
    for (std::size_t j = 0; j < m; ++j) out[j][k] = bins[k * m + j];
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
