#include "transforms/kronecker.hpp"

#include <algorithm>
#include <cmath>

#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::transforms {

KroneckerProduct::KroneckerProduct(std::vector<linalg::DenseMatrix> factors)
    : factors_(std::move(factors)) {
  require(!factors_.empty(), "KroneckerProduct: need at least one factor");
  group_bits_.reserve(factors_.size());
  for (const auto& f : factors_) {
    require(f.rows() == f.cols(), "KroneckerProduct: factors must be square");
    require(f.rows() >= 2 && is_power_of_two(f.rows()),
            "KroneckerProduct: factor dimension must be a power of two >= 2");
    const unsigned bits = log2_exact(f.rows());
    group_bits_.push_back(bits);
    total_bits_ += bits;
    require(total_bits_ <= 1000, "KroneckerProduct: total width too large");
  }
}

double KroneckerProduct::stochastic_deviation() const {
  double worst = 0.0;
  for (const auto& f : factors_) {
    worst = std::max(worst, f.max_column_sum_deviation());
  }
  return worst;
}

namespace {

/// Scratch ceiling for one dense block contraction, in doubles; spans longer
/// than kScratchCap / (s * m) elements are processed in sub-bursts so the
/// scratch stays cache-resident even for wide groups.
constexpr std::size_t kScratchCap = std::size_t{1} << 13;

/// Applies the dense s x s factor `f` across s equally spaced contiguous
/// spans of cnt doubles each (slot t starts at base + t * slot_stride).
/// scratch must hold s * cnt doubles.
void dense_block_spans(double* base, std::size_t slot_stride, std::size_t s,
                       std::size_t cnt, const linalg::DenseMatrix& f,
                       double* scratch) {
  for (std::size_t r = 0; r < s; ++r) {
    double* out = scratch + r * cnt;
    const double* slot0 = base;
    const double f0 = f(r, 0);
    for (std::size_t i = 0; i < cnt; ++i) out[i] = f0 * slot0[i];
    for (std::size_t c = 1; c < s; ++c) {
      const double frc = f(r, c);
      const double* slot = base + c * slot_stride;
      for (std::size_t i = 0; i < cnt; ++i) out[i] += frc * slot[i];
    }
  }
  for (std::size_t r = 0; r < s; ++r) {
    double* slot = base + r * slot_stride;
    const double* out = scratch + r * cnt;
    for (std::size_t i = 0; i < cnt; ++i) slot[i] = out[i];
  }
}

/// A run of consecutive groups forming one level band [k0, k1).
struct GroupBand {
  std::size_t first_group = 0;
  std::size_t group_count = 0;
  unsigned k0 = 0;
  unsigned k1 = 0;
};

/// Packs groups into bands under the same capacity rules as
/// blocked_band_boundaries, except boundaries snap to group boundaries and a
/// band always holds at least one group (an oversized group gets its own).
std::vector<GroupBand> grouped_band_partition(const KroneckerProduct& kp,
                                              const BlockedPlan& plan) {
  const unsigned nu = kp.total_bits();
  // Keep ~8 first-band tiles so small problems still parallelise, exactly
  // like the 2x2 banded kernel's kMinTilesLog2 heuristic.
  const unsigned first_cap =
      std::max(1u, std::min(plan.tile_log2, nu > 3 ? nu - 3 : nu));
  std::vector<GroupBand> bands;
  std::size_t g = 0;
  unsigned k0 = 0;
  while (g < kp.group_count()) {
    const unsigned cap =
        k0 == 0 ? first_cap
                : std::max(1u, plan.tile_log2 - std::min(plan.chunk_log2, k0));
    GroupBand band;
    band.first_group = g;
    band.k0 = k0;
    unsigned k1 = k0;
    while (g + band.group_count < kp.group_count()) {
      const unsigned bits = kp.group_bits(g + band.group_count);
      if (band.group_count > 0 && k1 - k0 + bits > cap) break;
      k1 += bits;
      ++band.group_count;
    }
    band.k1 = k1;
    bands.push_back(band);
    g += band.group_count;
    k0 = k1;
  }
  return bands;
}

}  // namespace

void apply_blocked_kronecker(std::span<double> panel, std::size_t m,
                             const KroneckerProduct& kp,
                             const parallel::Engine& engine,
                             const BlockedPlan& plan) {
  require(m >= 1, "blocked kronecker: panel width m must be >= 1");
  require(panel.size() == kp.dimension() * m,
          "blocked kronecker: panel size must be dimension() * m");
  const std::size_t n = kp.dimension();
  double* ys = panel.data();

  const BlockedPlan eff = panel_plan(plan, m);
  const std::vector<GroupBand> bands = grouped_band_partition(kp, eff);
  const linalg::DenseMatrix* factors = kp.factors().data();

  for (const GroupBand& band : bands) {
    // Per-group geometry within the band: absolute bit offset and width.
    std::vector<std::size_t> sizes, offsets;
    unsigned o = band.k0;
    std::size_t max_s = 1;
    for (std::size_t gi = 0; gi < band.group_count; ++gi) {
      const unsigned bits = kp.group_bits(band.first_group + gi);
      sizes.push_back(std::size_t{1} << bits);
      offsets.push_back(o);
      max_s = std::max(max_s, sizes.back());
      o += bits;
    }

    if (band.k0 == 0) {
      // Low band: contiguous tiles of 2^k1 panel rows, all groups applied in
      // place.  A group's orbit inside the tile is s spans of 2^offset rows;
      // long spans are cut into sub-bursts so the scratch stays small.
      const unsigned k1 = band.k1;
      const std::size_t tile = std::size_t{1} << k1;
      const std::size_t tiles = n >> k1;
      const GroupBand b = band;
      const std::vector<std::size_t> szs = sizes, offs = offsets;
      const std::size_t scratch_doubles =
          max_s * std::min(kScratchCap / std::max<std::size_t>(max_s, 1),
                           (tile >> 0) * m);
      engine.dispatch(tiles, [=](std::size_t begin, std::size_t end) {
        std::vector<double> scratch(std::max<std::size_t>(scratch_doubles, max_s * m));
        for (std::size_t t = begin; t < end; ++t) {
          double* yt = ys + (t << k1) * m;
          for (std::size_t gi = 0; gi < b.group_count; ++gi) {
            const linalg::DenseMatrix& f = factors[b.first_group + gi];
            const std::size_t s = szs[gi];
            const std::size_t estride = std::size_t{1} << offs[gi];
            const std::size_t run = estride * m;  // doubles per span
            const std::size_t burst =
                std::max<std::size_t>(m, std::min(run, kScratchCap / s));
            for (std::size_t sub = 0; sub < tile; sub += s * estride) {
              double* sb = yt + sub * m;
              for (std::size_t off = 0; off < run; off += burst) {
                const std::size_t cnt = std::min(burst, run - off);
                dense_block_spans(sb + off, run, s, cnt, f, scratch.data());
              }
            }
          }
        }
      });
    } else {
      // High band: a work item owns one gather panel restricted to 2^chunk
      // contiguous low rows; every span is a contiguous 2^chunk * m burst.
      const unsigned k0 = band.k0;
      const unsigned k1 = band.k1;
      const unsigned bbits = k1 - k0;
      const unsigned chunk = std::min(eff.chunk_log2, k0);
      const std::size_t rows = std::size_t{1} << bbits;
      const std::size_t cols = std::size_t{1} << chunk;
      const std::size_t cnt_full = cols * m;
      const std::size_t items = n >> (bbits + chunk);
      const std::size_t chunks_per_low = std::size_t{1} << (k0 - chunk);
      const GroupBand b = band;
      const std::vector<std::size_t> szs = sizes, offs = offsets;
      engine.dispatch(items, [=](std::size_t begin, std::size_t end) {
        std::vector<double> scratch(
            std::max<std::size_t>(max_s * std::min(cnt_full, kScratchCap / max_s),
                                  max_s * m));
        for (std::size_t id = begin; id < end; ++id) {
          const std::size_t high = id / chunks_per_low;
          const std::size_t lc = id % chunks_per_low;
          const std::size_t base_e = (high << k1) + (lc << chunk);
          for (std::size_t gi = 0; gi < b.group_count; ++gi) {
            const linalg::DenseMatrix& f = factors[b.first_group + gi];
            const std::size_t s = szs[gi];
            const std::size_t rstride = std::size_t{1} << (offs[gi] - k0);
            const std::size_t slot_stride = (rstride << k0) * m;
            const std::size_t burst =
                std::max<std::size_t>(m, std::min(cnt_full, kScratchCap / s));
            for (std::size_t r0 = 0; r0 < rows; r0 += s * rstride) {
              for (std::size_t rr = 0; rr < rstride; ++rr) {
                double* sb = ys + (base_e + ((r0 + rr) << k0)) * m;
                for (std::size_t off = 0; off < cnt_full; off += burst) {
                  const std::size_t cnt = std::min(burst, cnt_full - off);
                  dense_block_spans(sb + off, slot_stride, s, cnt, f,
                                    scratch.data());
                }
              }
            }
          }
        }
      });
    }
  }
}

}  // namespace qs::transforms
