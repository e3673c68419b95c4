#include "transforms/blocked_butterfly.hpp"

#include <algorithm>

#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::transforms {
namespace {

/// Keep at least 2^kMinTilesLog2 first-band tiles so small problems still
/// expose parallel work items (one tile per item).
constexpr unsigned kMinTilesLog2 = 3;

/// Levels 0-2 of a product of nu >= 3 levels run inside 8-double rows.
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
  if (nu < kRowLevels) return row_band_bounds(nu, plan);
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
                                   const BlockedPlan& plan, BandStep* step) {
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

  apply_sv(resolve_sv_kernels(plan.sv_kernel), x, y, factors, pre_scale,
           post_scale, engine, plan, step);
}

void apply_blocked_butterfly(std::span<double> v, std::span<const Factor2> factors,
                             const parallel::Engine& engine, const BlockedPlan& plan) {
  apply_blocked_butterfly_fused(v, v, factors, {}, {}, engine, plan);
}

}  // namespace qs::transforms
