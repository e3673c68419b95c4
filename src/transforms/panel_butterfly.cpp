#include "transforms/panel_butterfly.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::transforms {
namespace {

#if QS_TRACING_ON
/// Tags each panel sweep with the microkernel table that served it.  The
/// counter name must be a static string, so branch on the tier once.
void trace_kernel_tag(const SvKernels& k) {
  if (!qs::obs::enabled()) return;
  if (std::strcmp(k.name, "avx512") == 0) {
    QS_TRACE_COUNTER("kernel.dispatch.avx512", 1);
  } else if (std::strcmp(k.name, "avx2") == 0) {
    QS_TRACE_COUNTER("kernel.dispatch.avx2", 1);
  } else {
    QS_TRACE_COUNTER("kernel.dispatch.scalar", 1);
  }
}
#define QS_TRACE_KERNEL_TAG(k) trace_kernel_tag(k)
#else
#define QS_TRACE_KERNEL_TAG(k) ((void)0)
#endif

constexpr unsigned ceil_log2(std::size_t m) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < m) ++l;
  return l;
}

/// Sub-block size (log2 doubles) for the staged level sweep: 2^12
/// doubles = 32 KiB, sized to stay resident in a typical 32-48 KiB L1d
/// while the lowest butterfly levels are swept over it.
constexpr unsigned kSubTileLog2 = 12;

/// Middle-stage block size (log2 doubles) for oversized tiles: 2^17
/// doubles = 1 MiB, sized to a typical L2.  A default-plan panel tile is
/// at most this big already (panel_plan shrinks the tile as m grows), so
/// the middle stage only activates for custom or autotuned plans whose
/// tile * m outgrows L2 — there it keeps all but the top tile levels
/// L2-resident instead of sweeping them repeatedly at L3/DRAM speed.
constexpr unsigned kMidTileLog2 = 17;

/// Sweeps butterfly levels [l0, l1) of `fs` over a contiguous block of
/// total_d doubles organised as rows of w doubles each — level l pairs rows
/// r and r + 2^l, i.e. two w*2^l-double spans sitting next to each other.
/// Up to `max_radix` = 8, three levels go at a time through the radix-8 oct
/// kernel, then two through the radix-4 quad, then a final odd level
/// through the pair kernel: same arithmetic, in the same ascending order,
/// at 1/3 resp. 1/2 the block traffic of single-level sweeps.  (A radix-16
/// variant was tried and measured ~25% slower — sixteen live rows exhaust
/// the sixteen ymm registers and the spills cost more than the saved
/// sweep.)
void sweep_levels(const SvKernels& k, unsigned max_radix, const Factor2* fs,
                  std::size_t w, double* base, std::size_t total_d, unsigned l0,
                  unsigned l1) {
  unsigned l = l0;
  if (max_radix >= 8) {
    for (; l + 2 < l1; l += 3) {
      const std::size_t cnt = (std::size_t{1} << l) * w;
      const Factor2 f0 = fs[l];
      const Factor2 f1 = fs[l + 1];
      const Factor2 f2 = fs[l + 2];
      for (std::size_t j = 0; j < total_d; j += cnt << 3) {
        k.butterfly_oct_span(base + j, cnt, cnt, f0, f1, f2);
      }
    }
  }
  if (max_radix >= 4) {
    for (; l + 1 < l1; l += 2) {
      const std::size_t cnt = (std::size_t{1} << l) * w;
      const Factor2 f_lo = fs[l];
      const Factor2 f_hi = fs[l + 1];
      for (std::size_t j = 0; j < total_d; j += cnt << 2) {
        k.butterfly_quad_span(base + j, base + j + cnt, base + j + 2 * cnt,
                              base + j + 3 * cnt, cnt, f_lo, f_hi);
      }
    }
  }
  for (; l < l1; ++l) {
    const std::size_t cnt = (std::size_t{1} << l) * w;
    const Factor2 f = fs[l];
    for (std::size_t j = 0; j < total_d; j += cnt << 1) {
      k.butterfly_span(base + j, base + j + cnt, cnt, f);
    }
  }
}

/// Staged sweep of levels [0, levels): the lowest levels run sub-block by
/// sub-block on an L1-resident span, then (for blocks past ~2x L2 — i.e.
/// wide panels) a middle stage on L2-sized blocks, and the remaining levels
/// on the whole block.  Butterfly pairs of level l < k never cross a
/// 2^k-row stage block, and every element still sees its levels in
/// ascending order, so the result is bit-identical to the single-stage
/// sweep regardless of how many stages run.
void sweep_levels_staged(const SvKernels& k, unsigned max_radix,
                         const Factor2* fs, std::size_t w, double* base,
                         std::size_t total_d, unsigned levels) {
  const std::size_t sub_d = std::size_t{1} << kSubTileLog2;
  if (total_d <= 2 * sub_d || levels <= 1) {
    sweep_levels(k, max_radix, fs, w, base, total_d, 0, levels);
    return;
  }
  unsigned k_in = kSubTileLog2 > ceil_log2(w) ? kSubTileLog2 - ceil_log2(w) : 1;
  if (k_in >= levels) k_in = levels - 1;
  const std::size_t sub = (std::size_t{1} << k_in) * w;
  const std::size_t mid_d = std::size_t{1} << kMidTileLog2;
  if (total_d > mid_d && levels > k_in + 1) {
    unsigned k_mid =
        kMidTileLog2 > ceil_log2(w) ? kMidTileLog2 - ceil_log2(w) : k_in + 1;
    if (k_mid <= k_in) k_mid = k_in + 1;
    if (k_mid >= levels) k_mid = levels - 1;
    const std::size_t mid = (std::size_t{1} << k_mid) * w;
    for (std::size_t j = 0; j < total_d; j += mid) {
      for (std::size_t jj = 0; jj < mid; jj += sub) {
        sweep_levels(k, max_radix, fs, w, base + j + jj, sub, 0, k_in);
      }
      sweep_levels(k, max_radix, fs, w, base + j, mid, k_in, k_mid);
    }
    sweep_levels(k, max_radix, fs, w, base, total_d, k_mid, levels);
    return;
  }
  for (std::size_t j = 0; j < total_d; j += sub) {
    sweep_levels(k, max_radix, fs, w, base + j, sub, 0, k_in);
  }
  sweep_levels(k, max_radix, fs, w, base, total_d, k_in, levels);
}

/// How a diagonal scaling addresses the panel: not at all, one diagonal
/// shared by every column (broadcast), one diagonal per column read from m
/// column pointers (columns), or — the single-vector reshape's internal
/// mode — a diagonal laid out like the panel itself (elementwise).
enum class ScaleMode { none, broadcast, columns, elementwise };

/// A scaling as the band driver reads it: `diag` for broadcast and
/// elementwise, `columns` (m pointers) for columns.
struct Scale {
  ScaleMode mode = ScaleMode::none;
  const double* diag = nullptr;
  const double* const* columns = nullptr;
};

Scale broadcast_scale(std::span<const double> s, std::size_t n) {
  if (s.empty()) return {};
  require(s.size() == n,
          "panel butterfly: a shared scaling must be empty or length N");
  return {ScaleMode::broadcast, s.data(), nullptr};
}

/// One fused product Y <- D_post (Q (D_pre X)) as the band driver sees it:
/// 2^nu interleaved rows of m doubles, `fs` the nu row levels.
struct BandJob {
  const double* xs;
  double* ys;
  std::size_t m;
  unsigned nu;
  const Factor2* fs;
  Scale pre;
  Scale post;
};

/// y <- D x on `rows` panel rows from `row0` on (x and y point at row0's
/// first double; x may be y): the scaling of rows [row0, row0 + rows).
void scale_rows(const SvKernels& k, const Scale& d, double* y, const double* x,
                std::size_t row0, std::size_t rows, std::size_t m) {
  switch (d.mode) {
    case ScaleMode::none:
      if (x != y) std::memcpy(y, x, rows * m * sizeof(double));
      break;
    case ScaleMode::broadcast:
      k.mul_rows_broadcast(y, x, d.diag + row0, rows, m);
      break;
    case ScaleMode::columns:
      k.mul_rows_columns(y, x, d.columns, row0, rows, m);
      break;
    case ScaleMode::elementwise:
      k.mul_span(y, x, d.diag + row0 * m, rows * m);
      break;
  }
}

/// The single-vector reshape's in-register stage: the factors of levels 0-2,
/// applied inside every 8-double row (SvKernels::rows8_stage) in place of
/// band 0's pre-scale pass, which it fuses.
struct RowStage {
  Factor2 f0, f1, f2;
};

/// The band driver behind every product: band 0 on contiguous tiles of 2^k1
/// rows, then one dispatch per high band over gather panels.  `k` supplies
/// the span kernels, `max_radix` caps their level fusion, a non-null
/// `stage` runs before the band-0 sweep and takes over the pre-scale, and a
/// non-null `step` gets the last band's finished chunks (BandStep).
void run_bands(const SvKernels& k, unsigned max_radix, const RowStage* stage,
               [[maybe_unused]] const char* span_name, const BandJob& job,
               const parallel::Engine& engine, const BlockedPlan& eff,
               BandStep* step = nullptr) {
  const auto [xs, ys, m, nu, fs, pre, post] = job;
  const std::size_t n = std::size_t{1} << nu;
  const BandBounds bounds = row_band_bounds(nu, eff);
  const std::size_t bands = bounds.bands();
  if (step != nullptr) {
    // The last band's chunks: band 0's tiles when it is the only band,
    // otherwise the 2^chunk-row bursts of the last band's gather panels.
    const unsigned last = bands <= 1 ? (bands == 0 ? 0 : bounds[1])
                                     : std::min(eff.chunk_log2, bounds[bands - 1]);
    step->layout(n >> last, (std::size_t{1} << last) * m);
  }

  // Band 0: levels [0, k1) stay inside contiguous tiles of 2^k1 panel rows
  // (2^k1 * m doubles); the pre-scale (and, for a single-band problem, the
  // post-scale) rides in the tile loop.  Each butterfly pair of rows is two
  // contiguous bursts of stride*m doubles.  With nu = 0 the one row is the
  // whole problem.
  {
    QS_TRACE_SPAN_ARG(span_name, kernel, 0);
    const unsigned k1 = bands == 0 ? 0 : bounds[1];
    const std::size_t tile = std::size_t{1} << k1;
    const std::size_t tiles = n >> k1;
    const bool fuse_post = bands <= 1 && post.mode != ScaleMode::none;
    BandStep* const finish = bands <= 1 ? step : nullptr;
    engine.dispatch(tiles, [=, &k](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const std::size_t base_e = t << k1;
        const std::size_t base_d = base_e * m;
        double* yt = ys + base_d;
        if (stage != nullptr) {
          const double* st =
              pre.mode == ScaleMode::elementwise ? pre.diag + base_d : nullptr;
          k.rows8_stage(yt, xs + base_d, st, tile, stage->f0, stage->f1,
                        stage->f2);
        } else {
          scale_rows(k, pre, yt, xs + base_d, base_e, tile, m);
        }
        sweep_levels_staged(k, max_radix, fs, m, yt, tile * m, k1);
        if (fuse_post) scale_rows(k, post, yt, yt, base_e, tile, m);
        if (finish != nullptr) finish->epilogue(base_d, base_d + tile * m);
      }
    });
  }

  // High bands: levels [k0, k1) couple bits k0..k1-1 of the row index.  A
  // work item owns one gather panel restricted to 2^chunk contiguous low
  // rows, so every access is a contiguous burst of 2^chunk * m doubles.
  for (std::size_t band = 1; band < bands; ++band) {
    QS_TRACE_SPAN_ARG(span_name, kernel, band);
    const unsigned k0 = bounds[band];
    const unsigned k1 = bounds[band + 1];
    const unsigned b = k1 - k0;
    const unsigned chunk = std::min(eff.chunk_log2, k0);
    const std::size_t rows = std::size_t{1} << b;
    const std::size_t cols = std::size_t{1} << chunk;
    const std::size_t cnt = cols * m;
    const std::size_t items = n >> (b + chunk);
    const std::size_t chunks_per_low = std::size_t{1} << (k0 - chunk);
    const bool fuse_post = (band == bands - 1) && post.mode != ScaleMode::none;
    BandStep* const finish = band == bands - 1 ? step : nullptr;
    const Factor2* bandf = fs + k0;
    engine.dispatch(items, [=, &k](std::size_t begin, std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        const std::size_t high = id / chunks_per_low;
        const std::size_t lc = id % chunks_per_low;
        const std::size_t base_e = (high << k1) + (lc << chunk);
        // Same radix-8/radix-4 fusion as the low band, on the gather rows
        // r + k*s (s = 2^l band rows) spaced 2^k0 panel rows apart.
        unsigned l = 0;
        if (max_radix >= 8) {
          for (; l + 2 < b; l += 3) {
            const std::size_t rstride = std::size_t{1} << l;
            const std::size_t step = (rstride << k0) * m;
            const Factor2 f0 = bandf[l];
            const Factor2 f1 = bandf[l + 1];
            const Factor2 f2 = bandf[l + 2];
            for (std::size_t r0 = 0; r0 < rows; r0 += rstride << 3) {
              for (std::size_t r = r0; r < r0 + rstride; ++r) {
                k.butterfly_oct_span(ys + (base_e + (r << k0)) * m, step, cnt,
                                     f0, f1, f2);
              }
            }
          }
        }
        if (max_radix >= 4) {
          for (; l + 1 < b; l += 2) {
            const std::size_t rstride = std::size_t{1} << l;
            const std::size_t step = (rstride << k0) * m;
            const Factor2 f_lo = bandf[l];
            const Factor2 f_hi = bandf[l + 1];
            for (std::size_t r0 = 0; r0 < rows; r0 += rstride << 2) {
              for (std::size_t r = r0; r < r0 + rstride; ++r) {
                double* p0 = ys + (base_e + (r << k0)) * m;
                k.butterfly_quad_span(p0, p0 + step, p0 + 2 * step,
                                      p0 + 3 * step, cnt, f_lo, f_hi);
              }
            }
          }
        }
        for (; l < b; ++l) {
          const std::size_t rstride = std::size_t{1} << l;
          const Factor2 f = bandf[l];
          for (std::size_t r0 = 0; r0 < rows; r0 += rstride << 1) {
            for (std::size_t r = r0; r < r0 + rstride; ++r) {
              double* lo = ys + (base_e + (r << k0)) * m;
              k.butterfly_span(lo, lo + (rstride << k0) * m, cnt, f);
            }
          }
        }
        if (fuse_post) {
          for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t row_e = base_e + (r << k0);
            scale_rows(k, post, ys + row_e * m, ys + row_e * m, row_e, cols, m);
          }
        }
        if (finish != nullptr) {
          for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t row_d = (base_e + (r << k0)) * m;
            finish->epilogue(row_d, row_d + cnt);
          }
        }
      }
    });
  }
}

}  // namespace

BlockedPlan panel_plan(const BlockedPlan& plan, std::size_t m) {
  // The single-vector default tile (2^14 doubles = 128 KiB) deliberately
  // uses a fraction of a typical L2, so a panel tile can grow 8x (m <= 8)
  // before it pressures the cache; only wider panels shrink the tile.
  // Keeping the tile wide keeps the band count low, which is what decides
  // the pass count over a DRAM-resident panel.  Measured at nu = 22, m = 8:
  // the unshrunk tile is ~20% faster than shrinking by log2(m).
  constexpr unsigned kHeadroomLog2 = 3;
  BlockedPlan eff = plan;
  const unsigned lm = ceil_log2(m);
  const unsigned shrink = lm > kHeadroomLog2 ? lm - kHeadroomLog2 : 0;
  eff.tile_log2 = eff.tile_log2 > eff.chunk_log2 + shrink
                      ? eff.tile_log2 - shrink
                      : eff.chunk_log2 + 1;
  return eff;
}

void apply_sv(const SvKernels& k, std::span<const double> x, std::span<double> y,
              std::span<const Factor2> factors, std::span<const double> pre_scale,
              std::span<const double> post_scale, const parallel::Engine& engine,
              const BlockedPlan& plan, BandStep* step) {
  const auto nu = static_cast<unsigned>(factors.size());
  require(y.size() == std::size_t{1} << nu,
          "apply_sv: need nu factors for 2^nu doubles");
  const auto scale = [](std::span<const double> d) {
    return d.empty() ? Scale{} : Scale{ScaleMode::elementwise, d.data(), nullptr};
  };
  // Rows of 8 whose levels 0-2 run in the row stage; a vector too short
  // for one row is a one-column panel with no stage.
  const bool rows8 = nu >= 3;
  const unsigned staged = rows8 ? 3 : 0;
  const std::size_t width = rows8 ? 8 : 1;
  RowStage stage{};
  if (rows8) stage = {factors[0], factors[1], factors[2]};
  const BandJob job{x.data(), y.data(), width, nu - staged, factors.data() + staged,
                    scale(pre_scale), scale(post_scale)};
  run_bands(k, plan.sv_max_radix, rows8 ? &stage : nullptr, "fmmp.band", job, engine,
            panel_plan(plan, width), step);
}

namespace {

/// The m >= 2 panel product with its scalings resolved.
void run_panel(std::span<const double> x, std::span<double> y, std::size_t m,
               std::span<const Factor2> factors, Scale pre, Scale post,
               const parallel::Engine& engine, const BlockedPlan& plan) {
  const std::size_t total = y.size();
  require(x.size() == total, "panel butterfly: x and y sizes differ");
  require(total % m == 0, "panel butterfly: panel size must be a multiple of m");
  const std::size_t n = total / m;
  require(is_power_of_two(n), "panel butterfly: row count must be a power of two");
  const unsigned nu = log2_exact(n);
  require(factors.size() == nu, "panel butterfly: need exactly log2(N) factors");
  require(x.data() == y.data() || x.data() + total <= y.data() ||
              y.data() + total <= x.data(),
          "panel butterfly: x and y must alias exactly or not at all");

  // Widths past 8 sweep at full width under panel_plan's width-shrunk tile
  // (tile * m stays at the m = 8 cache footprint).  Per column the
  // per-element butterfly sequence is identical to an m <= 8 run, so results
  // are bit-identical per column to solving each 8-column block directly.
  // On the reference host this measured best-or-tied for m = 16 and 32 at
  // every nu in {18..22} against two alternatives that were built and
  // rejected:
  //   * explicit column staging (pack 8 columns at a time through a dense
  //     scratch panel, gather/scatter fused into the first/last band):
  //     1.6-2.4x slower at nu = 22 — 64-byte strided column windows stream
  //     far below contiguous DRAM bandwidth;
  //   * a width-adjusted plan (tile pre-grown so the band bounds match the
  //     m = 8 plan, chunk shrunk to keep high-band gathers L2-sized):
  //     within noise of the plain plan at nu >= 20, slower below — the
  //     extra band the shrunken tile sometimes costs is cheaper than
  //     sweeping tile levels beyond L2.
  const SvKernels& k = resolve_sv_kernels(plan.sv_kernel);
  QS_TRACE_KERNEL_TAG(k);
  const BandJob job{x.data(), y.data(), m, nu, factors.data(), pre, post};
  run_bands(k, plan.sv_max_radix, nullptr, "fmmp.panel_band", job, engine,
            panel_plan(plan, m));
}

}  // namespace

void apply_blocked_panel_butterfly_fused(std::span<const double> x,
                                         std::span<double> y, std::size_t m,
                                         std::span<const Factor2> factors,
                                         std::span<const double> pre_scale,
                                         std::span<const double> post_scale,
                                         const parallel::Engine& engine,
                                         const BlockedPlan& plan) {
  require(m >= 1, "panel butterfly: panel width m must be >= 1");
  if (m == 1) {
    // A one-column panel is a single vector (the 8-row reshape from
    // nu = 3 on).
    apply_blocked_butterfly_fused(x, y, factors, pre_scale, post_scale, engine,
                                  plan);
    return;
  }
  const std::size_t n = y.size() / m;
  run_panel(x, y, m, factors, broadcast_scale(pre_scale, n),
            broadcast_scale(post_scale, n), engine, plan);
}

void apply_blocked_panel_butterfly_columns(std::span<const double> x,
                                           std::span<double> y, std::size_t m,
                                           std::span<const Factor2> factors,
                                           std::span<const double* const> pre_columns,
                                           const parallel::Engine& engine,
                                           const BlockedPlan& plan) {
  require(m >= 1, "panel butterfly: panel width m must be >= 1");
  require(pre_columns.size() == m,
          "panel butterfly: need one scaling column per panel column");
  if (m == 1) {
    // One column's diagonal is a single vector's.
    apply_blocked_butterfly_fused(x, y, factors,
                                  std::span<const double>(pre_columns[0], y.size()),
                                  {}, engine, plan);
    return;
  }
  run_panel(x, y, m, factors, {ScaleMode::columns, nullptr, pre_columns.data()}, {},
            engine, plan);
}

void apply_blocked_panel_butterfly(std::span<double> panel, std::size_t m,
                                   std::span<const Factor2> factors,
                                   const parallel::Engine& engine,
                                   const BlockedPlan& plan) {
  apply_blocked_panel_butterfly_fused(panel, panel, m, factors, {}, {}, engine, plan);
}

void pack_panel_column(std::span<const double> column, std::span<double> panel,
                       std::size_t m, std::size_t j) {
  require(m >= 1 && j < m, "pack_panel_column: column index out of range");
  require(column.size() * m == panel.size(), "pack_panel_column: size mismatch");
  for (std::size_t i = 0; i < column.size(); ++i) panel[i * m + j] = column[i];
}

void unpack_panel_column(std::span<const double> panel, std::size_t m,
                         std::size_t j, std::span<double> column) {
  require(m >= 1 && j < m, "unpack_panel_column: column index out of range");
  require(column.size() * m == panel.size(), "unpack_panel_column: size mismatch");
  for (std::size_t i = 0; i < column.size(); ++i) column[i] = panel[i * m + j];
}

}  // namespace qs::transforms
