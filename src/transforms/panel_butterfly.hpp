// Multi-vector (panel) banded butterfly: the banded Fmmp kernel of
// transforms/blocked_butterfly applied to m vectors at once.
//
// At nu >= 20 a single banded W x streams the whole 2^nu vector from DRAM to
// do ~4 flops per double per band — the product is memory-bound, not
// flop-bound.  Workloads that apply the *same* mutation operator to *many*
// vectors (block subspace iteration for several eigenpairs, landscape
// families sharing one Q, trajectory ensembles) can therefore amortise the
// memory traffic m-fold: the panel kernel stores the m vectors interleaved,
//
//   panel[i*m + j] = element i of vector j,     X in R^{N x m} row-major,
//
// and every butterfly pair (i, i + 2^l) becomes a pair of *contiguous*
// m-double rows.  One sweep over the panel advances all m vectors through a
// whole level band, and each 2x2 butterfly is a full-width vector operation
// over the m columns (the span kernels of transforms/sv_microkernel; m is
// arbitrary — tails are handled).  Those kernels round twice per output,
// exactly like the single-vector product, so every column of a panel
// product is bit-identical to the single-vector product of that column.
//
// The band structure is exactly blocked_butterfly's; the tile budget is
// shrunk by log2(m) - 3 past m = 8 so a tile of panel rows stays within the
// m = 8 cache footprint.
//
// One band driver and one kernel table serve every width: a single vector
// of nu >= 3 levels is the m = 8 panel of its N/8 rows of 8 (apply_sv),
// which adds an in-register stage for levels 0-2; a shorter one is a
// one-column panel.
#pragma once

#include <span>
#include <vector>

#include "parallel/engine.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/butterfly.hpp"

namespace qs::transforms {

/// The band plan actually used for an m-wide panel: `plan` with tile_log2
/// reduced by max(0, ceil(log2(m)) - 3), clamped to chunk_log2 + 1.  Panels
/// up to m = 8 keep the full single-vector tile (the default tile uses only
/// a fraction of a typical L2, and a wide tile minimises the band count —
/// i.e. the number of passes over a DRAM-resident panel); wider panels
/// shrink the tile so a tile of panel rows stays cache-resident.
BlockedPlan panel_plan(const BlockedPlan& plan, std::size_t m);

/// In-place banded panel transform: every column j of the interleaved panel
/// becomes (F_{nu-1} (x) ... (x) F_0) column_j.  Requires m >= 1 and
/// panel.size() == 2^factors.size() * m.
void apply_blocked_panel_butterfly(std::span<double> panel, std::size_t m,
                                   std::span<const Factor2> factors,
                                   const parallel::Engine& engine,
                                   const BlockedPlan& plan = {});

/// Fused panel product Y <- D_post (Q (D_pre X)) with Q the butterfly of
/// `factors` and each diagonal scaling empty (identity) or of length N,
/// broadcast across all m columns (every column sees the same landscape).
/// The scalings ride inside the first/last band, costing no extra pass.
/// x may alias y exactly (x.data() == y.data()) or not at all.  Requires
/// x.size() == y.size() == 2^factors.size() * m.
///
/// m == 1 is a single vector and runs apply_blocked_butterfly_fused.
/// m >= 2 runs the sv table `plan.sv_kernel` resolves to, fusion capped at
/// plan.sv_max_radix; widths past 8 sweep at full width under panel_plan's
/// shrunk tile.  Every column is bit-identical to
/// apply_blocked_butterfly_fused on that column.
void apply_blocked_panel_butterfly_fused(std::span<const double> x,
                                         std::span<double> y, std::size_t m,
                                         std::span<const Factor2> factors,
                                         std::span<const double> pre_scale,
                                         std::span<const double> post_scale,
                                         const parallel::Engine& engine,
                                         const BlockedPlan& plan = {});

/// Y <- Q (D_j X) column by column, each column pre-scaled by its own
/// diagonal (landscape families): `pre_columns` holds m pointers to N
/// doubles, column j scaled by the one its pointer addresses.  The
/// diagonals are read in place, row by row, as the first band reaches them
/// (SvKernels::mul_rows_columns), so a family needs no n x m scaling panel.
/// Aliasing and shapes as above.  Every column is bit-identical to
/// apply_blocked_butterfly_fused on that column with its own pre-scale.
void apply_blocked_panel_butterfly_columns(std::span<const double> x,
                                           std::span<double> y, std::size_t m,
                                           std::span<const Factor2> factors,
                                           std::span<const double* const> pre_columns,
                                           const parallel::Engine& engine,
                                           const BlockedPlan& plan = {});

/// apply_blocked_butterfly_fused on the sv table `k`.  From nu = 3 on it
/// runs as an m = 8 panel of N/8 rows: k.rows8_stage applies levels 0-2
/// (and the pre-scale) in band 0, then the band driver sweeps levels
/// 3..nu-1 with k's span kernels under panel_plan(plan, 8), fusion capped
/// at plan.sv_max_radix.  Below nu = 3 it is a one-column panel with no row
/// stage.  A non-null `step` sees y's chunks as the last band finishes
/// them (BandStep).  The caller has checked the shapes.
void apply_sv(const SvKernels& k, std::span<const double> x, std::span<double> y,
              std::span<const Factor2> factors, std::span<const double> pre_scale,
              std::span<const double> post_scale, const parallel::Engine& engine,
              const BlockedPlan& plan, BandStep* step = nullptr);

/// Interleaves column j of the panel from a contiguous vector:
/// panel[i*m + j] = column[i].  Requires column.size() * m == panel.size()
/// and j < m.
void pack_panel_column(std::span<const double> column, std::span<double> panel,
                       std::size_t m, std::size_t j);

/// Extracts column j of the panel: column[i] = panel[i*m + j].
void unpack_panel_column(std::span<const double> panel, std::size_t m,
                         std::size_t j, std::span<double> column);

}  // namespace qs::transforms
