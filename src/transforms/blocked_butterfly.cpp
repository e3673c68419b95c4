#include "transforms/blocked_butterfly.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::transforms {
namespace {

/// Keep at least 2^kMinTilesLog2 first-band tiles so small problems still
/// expose parallel work items (one tile per item).
constexpr unsigned kMinTilesLog2 = 3;

/// Levels 0-2 of a SIMD-tier product run inside 8-double rows.
constexpr unsigned kRowLevels = 3;

}  // namespace

BandBounds row_band_bounds(unsigned nu, const BlockedPlan& plan) {
  require(plan.tile_log2 >= 1 && plan.tile_log2 <= 30,
          "blocked butterfly: tile_log2 out of range");
  require(plan.chunk_log2 < plan.tile_log2,
          "blocked butterfly: chunk_log2 must be smaller than tile_log2");
  require(plan.sv_max_radix == 2 || plan.sv_max_radix == 4 || plan.sv_max_radix == 8,
          "blocked butterfly: sv_max_radix must be 2, 4, or 8");
  require(nu <= kMaxChainLength, "blocked butterfly: chain length out of range");
  BandBounds out;
  out.bounds[out.count++] = 0;
  if (nu == 0) return out;
  const unsigned first =
      std::max(1u, std::min(plan.tile_log2, nu > kMinTilesLog2 ? nu - kMinTilesLog2 : nu));
  out.bounds[out.count++] = first;
  while (out.bounds[out.count - 1] < nu) {
    const unsigned k0 = out.bounds[out.count - 1];
    // High-band panels hold 2^(band + chunk) doubles; cap the band so a
    // panel never exceeds the tile.
    const unsigned chunk = std::min(plan.chunk_log2, k0);
    const unsigned band = std::max(1u, plan.tile_log2 - chunk);
    out.bounds[out.count++] = std::min(nu, k0 + band);
  }
  return out;
}

BandBounds blocked_band_bounds(unsigned nu, const BlockedPlan& plan) {
  if (nu < kRowLevels || resolve_sv_kernels(plan.sv_kernel) == nullptr) {
    return row_band_bounds(nu, plan);
  }
  require(nu <= kMaxChainLength, "blocked butterfly: chain length out of range");
  BandBounds out = row_band_bounds(nu - kRowLevels, panel_plan(plan, 8));
  if (out.count == 1) out.bounds[out.count++] = 0;  // one row: the stage alone
  for (std::size_t i = 1; i < out.count; ++i) out.bounds[i] += kRowLevels;
  return out;
}

std::vector<unsigned> blocked_band_boundaries(unsigned nu, const BlockedPlan& plan) {
  const BandBounds b = blocked_band_bounds(nu, plan);
  return std::vector<unsigned>(b.bounds.begin(), b.bounds.begin() + b.count);
}

void apply_blocked_butterfly_fused(std::span<const double> x, std::span<double> y,
                                   std::span<const Factor2> factors,
                                   std::span<const double> pre_scale,
                                   std::span<const double> post_scale,
                                   const parallel::Engine& engine,
                                   const BlockedPlan& plan) {
  const std::size_t n = y.size();
  require(is_power_of_two(n), "blocked butterfly: length must be a power of two");
  const unsigned nu = log2_exact(n);
  require(factors.size() == nu, "blocked butterfly: need exactly log2(N) factors");
  require(x.size() == n, "blocked butterfly: x and y sizes differ");
  require(x.data() == y.data() || x.data() + n <= y.data() || y.data() + n <= x.data(),
          "blocked butterfly: x and y must alias exactly or not at all");
  require(pre_scale.empty() || pre_scale.size() == n,
          "blocked butterfly: pre_scale size mismatch");
  require(post_scale.empty() || post_scale.size() == n,
          "blocked butterfly: post_scale size mismatch");

  const double* xs = x.data();
  double* ys = y.data();
  const double* pres = pre_scale.empty() ? nullptr : pre_scale.data();
  const double* posts = post_scale.empty() ? nullptr : post_scale.data();
  const Factor2* fs = factors.data();

  if (nu == 0) {
    ys[0] = (pres != nullptr ? pres[0] : 1.0) * xs[0] *
            (posts != nullptr ? posts[0] : 1.0);
    return;
  }

  // A SIMD table runs the product as an m = 8 panel of N/8 rows: levels
  // 0-2 in registers per row, the rest through the panel band driver.
  if (nu >= kRowLevels) {
    if (const SvKernels* k = resolve_sv_kernels(plan.sv_kernel); k != nullptr) {
      apply_sv_rows8(*k, x, y, factors, pre_scale, post_scale, engine, plan);
      return;
    }
  }

  // The plain loops (the bitwise reference every tier reproduces).
  const BandBounds bounds = row_band_bounds(nu, plan);
  const std::size_t bands = bounds.bands();

  // Band 0: levels [0, k1) couple only bits below k1, so each contiguous
  // tile of 2^k1 elements is an independent work item; the pre-scale (and,
  // for a single-band problem, the post-scale) rides in the tile loop.
  {
    QS_TRACE_SPAN_ARG("fmmp.band", kernel, 0);
    const unsigned k1 = bounds[1];
    const std::size_t tile = std::size_t{1} << k1;
    const std::size_t tiles = n >> k1;
    const bool fuse_post = (bands == 1) && posts != nullptr;
    engine.dispatch(tiles, [=](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const std::size_t base = t << k1;
        double* yt = ys + base;
        if (pres != nullptr) {
          const double* xt = xs + base;
          const double* pt = pres + base;
          for (std::size_t i = 0; i < tile; ++i) yt[i] = pt[i] * xt[i];
        } else if (xs != ys) {
          const double* xt = xs + base;
          for (std::size_t i = 0; i < tile; ++i) yt[i] = xt[i];
        }
        for (unsigned l = 0; l < k1; ++l) {
          const std::size_t stride = std::size_t{1} << l;
          const Factor2 f = fs[l];
          for (std::size_t j = 0; j < tile; j += stride << 1) {
            for (std::size_t idx = j; idx < j + stride; ++idx) {
              const double t1 = yt[idx];
              const double t2 = yt[idx + stride];
              yt[idx] = f.m00 * t1 + f.m01 * t2;
              yt[idx + stride] = f.m10 * t1 + f.m11 * t2;
            }
          }
        }
        if (fuse_post) {
          const double* qt = posts + base;
          for (std::size_t i = 0; i < tile; ++i) yt[i] *= qt[i];
        }
      }
    });
  }

  // High bands: levels [k0, k1) couple bits k0..k1-1.  An orbit is a panel
  // of 2^(k1-k0) rows spaced 2^k0 apart; a work item owns one panel
  // restricted to 2^chunk contiguous low offsets, so every row access is a
  // contiguous burst and the panel stays cache-resident across the band.
  for (std::size_t band = 1; band < bands; ++band) {
    QS_TRACE_SPAN_ARG("fmmp.band", kernel, band);
    const unsigned k0 = bounds[band];
    const unsigned k1 = bounds[band + 1];
    const unsigned b = k1 - k0;
    const unsigned chunk = std::min(plan.chunk_log2, k0);
    const std::size_t rows = std::size_t{1} << b;
    const std::size_t cols = std::size_t{1} << chunk;
    const std::size_t items = n >> (b + chunk);
    const std::size_t chunks_per_low = std::size_t{1} << (k0 - chunk);
    const bool fuse_post = (band == bands - 1) && posts != nullptr;
    const Factor2* bandf = fs + k0;
    engine.dispatch(items, [=](std::size_t begin, std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        const std::size_t high = id / chunks_per_low;
        const std::size_t lc = id % chunks_per_low;
        const std::size_t base = (high << k1) + (lc << chunk);
        for (unsigned l = 0; l < b; ++l) {
          const std::size_t rstride = std::size_t{1} << l;
          const Factor2 f = bandf[l];
          for (std::size_t r0 = 0; r0 < rows; r0 += rstride << 1) {
            for (std::size_t r = r0; r < r0 + rstride; ++r) {
              double* lo = ys + base + (r << k0);
              double* hi = lo + (rstride << k0);
              for (std::size_t c = 0; c < cols; ++c) {
                const double t1 = lo[c];
                const double t2 = hi[c];
                lo[c] = f.m00 * t1 + f.m01 * t2;
                hi[c] = f.m10 * t1 + f.m11 * t2;
              }
            }
          }
        }
        if (fuse_post) {
          for (std::size_t r = 0; r < rows; ++r) {
            double* lo = ys + base + (r << k0);
            const double* q = posts + base + (r << k0);
            for (std::size_t c = 0; c < cols; ++c) lo[c] *= q[c];
          }
        }
      }
    });
  }
}

void apply_blocked_butterfly(std::span<double> v, std::span<const Factor2> factors,
                             const parallel::Engine& engine, const BlockedPlan& plan) {
  apply_blocked_butterfly_fused(v, v, factors, {}, {}, engine, plan);
}

}  // namespace qs::transforms
