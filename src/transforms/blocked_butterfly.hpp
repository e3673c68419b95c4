// Cache-blocked, level-fused butterfly (the banded Fmmp kernel).
//
// The paper's Algorithm 2 (the reference apply_butterfly_per_level) sweeps
// the whole N-vector once per butterfly level and synchronises between
// levels: nu passes and nu barriers for a product that does only 4N log2 N
// flops.  At nu >= 20 the vector no longer fits in cache and the pass count
// — not the flop count — is the cost model.
//
// This kernel partitions the nu levels into *bands* and runs one
// engine.dispatch per band; every work item applies all levels of its band
// inside an L2-resident tile, so the N-vector is swept (and the engine
// barriered) once per band instead of once per level:
//
//   * the low band [0, B) couples bits 0..B-1, i.e. contiguous tiles of
//     2^B elements — each tile is loaded once and the whole band runs on it
//     in place;
//   * a high band [k0, k1) couples bits k0..k1-1: its orbit is a *gather
//     panel* of 2^(k1-k0) rows spaced 2^k0 apart.  A work item owns one
//     panel restricted to 2^chunk contiguous low offsets, so each strided
//     row is a contiguous 2^chunk-double burst and the whole panel
//     (2^(k1-k0+chunk) doubles) stays cache-resident across the band.
//
// The diagonal fitness scalings of the problem formulations (W = Q F etc.)
// fuse into the first/last band: a solver matvec costs two fewer full
// passes than scale + butterfly + scale run separately.
//
// The product runs on the band driver of transforms/panel_butterfly with
// the sv table the plan resolves to (apply_sv): from nu = 3 on as the
// m = 8 panel of its N/8 rows, below that as a one-column panel.  Every
// table gives the bits of the paper's Algorithm 1.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "parallel/engine.hpp"
#include "support/bits.hpp"
#include "transforms/butterfly.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::transforms {

/// Tiling parameters for the banded butterfly.  Tile and chunk count panel
/// rows: m doubles for an m-wide panel, and 8 doubles for a single vector
/// of nu >= 3 levels, which runs as an m = 8 panel of N/8 rows (its in-row
/// levels 0-2 come on top of the band levels counted here); a shorter
/// single vector has rows of one double.
struct BlockedPlan {
  /// log2 of the tile size in rows: the low band spans this many row levels
  /// and every work item's working set is capped at 2^tile_log2 rows
  /// (default 2^14; 1 MiB as a single vector's rows of 8).
  unsigned tile_log2 = 14;

  /// log2 of the contiguous low-offset chunk a high-band work item owns.
  /// Rows of a gather panel are bursts of 2^chunk_log2 rows (default 2^6:
  /// 4 KiB as a single vector's rows of 8), so high bands span at
  /// most tile_log2 - chunk_log2 levels each.
  unsigned chunk_log2 = 6;

  /// Which microkernel table runs the band sweeps, for a single vector and
  /// every m >= 2 panel alike (see transforms/sv_microkernel.hpp).
  /// `automatic` picks the widest SIMD tier the build and CPU support;
  /// `scalar` forces the portable scalar table.  Every choice is
  /// bit-identical — the SIMD tables avoid FMA.
  SvKernel sv_kernel = SvKernel::automatic;

  /// Maximum fused radix of the microkernel sweeps: 8 fuses three levels
  /// per pass (radix-8), 4 fuses two, 2 disables fusion.  A single vector
  /// applies it to levels >= 3 (its in-row levels 0-2 always run as one
  /// stage); an m >= 2 panel and a single vector below nu = 3 apply it
  /// to every level.  Bit-identity holds for every setting — fusion only
  /// reorders independent pairs.
  unsigned sv_max_radix = 8;
};

/// Band boundaries [0 = b_0 < b_1 < ... < b_m = nu] of the single-vector
/// apply of 2^nu doubles under `plan`: band i applies levels
/// [b_i, b_{i+1}).  From nu = 3 on the apply runs as 2^(nu-3) rows of 8,
/// so these are row_band_bounds(nu - 3, plan) shifted up by the three
/// in-row levels, which join band 0; below that row_band_bounds(nu, plan).
std::vector<unsigned> blocked_band_boundaries(unsigned nu, const BlockedPlan& plan);

/// Fixed-capacity form of the band boundaries (every band spans >= 1 level,
/// so there are at most nu + 1 <= kMaxChainLength + 1 entries).  The apply
/// paths use this instead of the std::vector form: computing the bounds must
/// not heap-allocate, or every matvec of the zero-allocation solver hot path
/// would (see tests/alloc_guard_test.cpp).
struct BandBounds {
  std::array<unsigned, kMaxChainLength + 2> bounds;
  std::size_t count = 0;  ///< number of valid entries in `bounds`

  std::size_t bands() const { return count - 1; }
  unsigned operator[](std::size_t i) const { return bounds[i]; }
};

/// Allocation-free equivalent of blocked_band_boundaries.
BandBounds blocked_band_bounds(unsigned nu, const BlockedPlan& plan);

/// Band boundaries over 2^nu rows of any width, the split the band drivers
/// sweep.  The first band is capped so that at least ~8 tiles exist
/// (parallelisable even for small nu); later bands are capped at
/// tile_log2 - chunk_log2 levels so gather panels stay tile-sized.
BandBounds row_band_bounds(unsigned nu, const BlockedPlan& plan);

/// In-place banded transform v <- (F_{nu-1} (x) ... (x) F_0) v through the
/// engine, one dispatch per band.  Bit-identical to apply_butterfly with
/// ascending level order.  Requires v.size() == 2^factors.size().
void apply_blocked_butterfly(std::span<double> v, std::span<const Factor2> factors,
                             const parallel::Engine& engine,
                             const BlockedPlan& plan = {});

/// Fused product y <- D_post (Q (D_pre x)) where Q is the butterfly of
/// `factors` and D_pre/D_post are diagonal scalings (empty span = identity).
/// The scalings ride inside the first/last band's tile loops, costing no
/// extra pass over the vector.  x may alias y exactly (x.data() == y.data())
/// or not at all.  Requires x.size() == y.size() == 2^factors.size() and
/// pre/post, when nonempty, of the same size.
void apply_blocked_butterfly_fused(std::span<const double> x, std::span<double> y,
                                   std::span<const Factor2> factors,
                                   std::span<const double> pre_scale,
                                   std::span<const double> post_scale,
                                   const parallel::Engine& engine,
                                   const BlockedPlan& plan = {});

}  // namespace qs::transforms
