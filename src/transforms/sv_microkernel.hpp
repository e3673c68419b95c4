// SIMD span microkernels for the banded butterfly: the one kernel table
// every Fmmp product runs on, a single vector and an m-column panel alike.
//
// Every tier is BIT-IDENTICAL to the scalar table.  The SIMD
// implementations use separate vmulpd + vaddpd (two roundings, exactly the
// scalar expression m00*t1 + m01*t2), their translation units are built
// WITHOUT -mfma and with -ffp-contract=off, and the runtime probes require
// only avx2 / avx512f (not fma).  scalar == avx2 == avx512 bitwise, and all
// three equal the paper's Algorithm 1 (reference::ReferenceFmmp).  Because
// a panel sweep applies the same per-element expression to each of its m
// columns, every column of an m-wide product is bit-identical to the
// single-vector product of that column: one table, one set of bits.
//
//   * scalar: always compiled, the reference table;
//   * AVX2: compiled only when the build probe passed (QS_ENABLE_SIMD, see
//     the top-level CMakeLists), selected only when the CPU reports avx2;
//   * AVX-512F: same contract, preferred over AVX2 when available.
//
// The radix-4/radix-8 kernels fuse two/three butterfly levels per sweep —
// per element the same ascending per-level 2x2 applications, so fusion (and
// the band/sub-tile staging of the panel driver that runs them) preserves
// bit-identity; only the traversal order of *independent* pairs changes.
// `sv_max_radix` caps that fusion for the levels >= 3 sweep.
//
// A single-vector product of nu >= 3 levels runs as an m = 8 panel of N/8
// rows (apply_sv in transforms/panel_butterfly): rows8_stage applies
// levels 0-2 inside each 8-double row in registers, fused with the
// pre-scale, and the panel band driver sweeps levels 3..nu-1 with this
// table's span kernels — every span >= 8 doubles.  The row stage keeps the
// scalar operand order per output, m00*lo + m01*hi and m10*lo + m11*hi (lo
// the lower index), by blending each pair's elements into place rather
// than commuting a sum.  NaN payloads are not pinned (a compiler may swap
// a commutative add's operands in any tier); NaN positions are.  Below
// nu = 3 a single vector is a one-column panel with no row stage.  An
// m >= 2 panel runs the same band driver and span kernels without the row
// stage, plus the row scalings of a panel: one diagonal shared across its
// m columns, or one per column read in place from m column pointers.
//
// The same table carries the power iteration's reductions.  A plain
// `acc += ...` loop is one dependent add chain the compiler may not
// reorder; the tree_* entries instead evaluate every sum in the binary-tree
// order of linalg::tree_reduce — 64-leaf aligned blocks reduced in
// registers, block sums merged by a binary counter — so every tier returns
// exactly the bits of the scalar tree_reduce, and a distributed rank's
// block sum is a complete subtree of the serial one.  Lengths that are not
// a power of two, or shorter than one block, fall back to tree_reduce.  The
// two check entries let one power-iteration step read its vectors in two
// passes instead of six (solvers/power_iteration.cpp).
#pragma once

#include <cstddef>

#include "transforms/butterfly.hpp"

namespace qs::transforms {

/// Up to three sums returned by one fused reduction pass.
struct TreeSums {
  double first;
  double second;
  double third;
};

/// Table of contiguous-span kernels the banded butterfly is built from (a
/// single vector and every m-column panel), plus the power iteration's
/// tree-ordered reductions.
struct SvKernels {
  /// Butterfly across two contiguous spans: for i in [0, cnt),
  /// (lo[i], hi[i]) <- (m00 lo[i] + m01 hi[i], m10 lo[i] + m11 hi[i]).
  void (*butterfly_span)(double* lo, double* hi, std::size_t cnt, Factor2 f);

  /// Two fused levels (radix-4) on four equally shaped spans: f_lo on the
  /// pairs (r0,r1) and (r2,r3), then f_hi on (r0,r2) and (r1,r3) — the
  /// arithmetic of two successive butterfly_span levels with one load and
  /// one store per element.
  void (*butterfly_quad_span)(double* r0, double* r1, double* r2, double* r3,
                              std::size_t cnt, Factor2 f_lo, Factor2 f_hi);

  /// Three fused levels (radix-8) on eight equally spaced spans (span k
  /// starts at p + k*stride): f0 pairs (0,1)(2,3)(4,5)(6,7), then f1 pairs
  /// (0,2)(1,3)(4,6)(5,7), then f2 pairs (0,4)(1,5)(2,6)(3,7).
  void (*butterfly_oct_span)(double* p, std::size_t stride, std::size_t cnt,
                             Factor2 f0, Factor2 f1, Factor2 f2);

  /// Levels 0-2 inside each of `rows` contiguous 8-double rows: for every
  /// row r, y[8r..8r+8) <- B2 B1 B0 (s[8r..8r+8) (*) x[8r..8r+8)), with the
  /// pairs of butterfly_oct_span at stride 1.  `s` may be null (no scaling,
  /// y-row <- B2 B1 B0 x-row); x may alias y exactly.
  void (*rows8_stage)(double* y, const double* x, const double* s,
                      std::size_t rows, Factor2 f0, Factor2 f1, Factor2 f2);

  /// y[i] = s[i] * x[i] for i in [0, cnt). x may alias y exactly.
  void (*mul_span)(double* y, const double* x, const double* s, std::size_t cnt);

  /// Broadcast row scaling on an interleaved panel: for r in [0, rows) and
  /// c in [0, m), y[r*m + c] = s[r] * x[r*m + c]. x may alias y exactly.
  void (*mul_rows_broadcast)(double* y, const double* x, const double* s,
                             std::size_t rows, std::size_t m);

  /// Column row scaling on an interleaved panel, each column's diagonal
  /// read in place from its own vector: for r in [0, rows) and c in
  /// [0, m), y[r*m + c] = s[c][row0 + r] * x[r*m + c].  x may alias y
  /// exactly.  The SIMD tiers transpose blocks of the m column streams
  /// into panel rows in registers; the products are the scalar ones.
  void (*mul_rows_columns)(double* y, const double* x, const double* const* s,
                           std::size_t row0, std::size_t rows, std::size_t m);

  /// Pass 1 of a power-iteration check over [0, n): {sum x[i]^2,
  /// sum x[i]*y[i], sum |y[i] - mu*x[i]|}.  mu == 0 sums |y[i]| (the
  /// unshifted iteration takes no product with x).
  TreeSums (*tree_check_sums)(const double* x, const double* y, std::size_t n,
                              double mu);

  /// Pass 2 of a check over [0, n): returns sum (y[i] - lambda*x[i])^2 and,
  /// in the same sweep, writes y[i] <- (y[i] - mu*x[i]) * inv (mu == 0:
  /// y[i] * inv).  The residual reads y before the write.
  double (*tree_residual_update)(const double* x, double* y, std::size_t n,
                                 double lambda, double mu, double inv);

  /// The check passes and the sign sums of an interleaved 8-column panel
  /// of `rows` rows: per column, the sums of tree_check_sums,
  /// tree_residual_update (lambda and inv per column) and tree_sign_sums,
  /// each in tree order over rows.  `out` receives one block of 8 per sum:
  /// 24, 8 and 16 values.
  void (*panel8_check_sums)(const double* x, const double* y, std::size_t rows,
                            double mu, double* out);
  void (*panel8_residual_update)(const double* x, double* y, std::size_t rows,
                                 const double* lambda, double mu,
                                 const double* inv, double* out);
  void (*panel8_sign_sums)(const double* x, std::size_t rows, double* out);

  /// {sum of the positive part max(v[i], 0), sum of the negative part
  /// min(v[i], 0)} over [0, n) (third is 0).  For a vector with no negative
  /// entry the first is tree_abs_sum's bits.
  TreeSums (*tree_sign_sums)(const double* v, std::size_t n);

  /// sum |v[i]| over [0, n).
  double (*tree_abs_sum)(const double* v, std::size_t n);

  /// Implementation name for provenance: "scalar", "avx2", or "avx512".
  const char* name;
};

/// Which kernel table a BlockedPlan requests.
enum class SvKernel : unsigned char {
  automatic = 0,  ///< widest SIMD table the build + CPU support, else scalar
  scalar,         ///< the portable scalar table, forced
  avx2,           ///< the 4-wide non-FMA table (scalar when unavailable)
  avx512,         ///< the 8-wide non-FMA table (scalar when unavailable)
};

/// The requested choice's name: "automatic", "scalar", "avx2", "avx512".
const char* to_string(SvKernel choice);

/// The portable scalar table (always available; bitwise reference).
const SvKernels& scalar_sv_kernels();

/// The AVX2 table, or null when not compiled in or the CPU lacks avx2.
const SvKernels* avx2_sv_kernels();

/// The AVX-512F table, or null when not compiled in or the CPU lacks avx512f.
const SvKernels* avx512_sv_kernels();

/// The widest SIMD table the build and the running CPU support, or null
/// when none is available (such a host runs the scalar table).
const SvKernels* best_sv_kernels();

/// Resolves a plan's requested kernel to a table.  A SIMD tier this
/// build/CPU cannot run resolves to the scalar table, so plans stay
/// portable across hosts; every table returns the same bits.
const SvKernels& resolve_sv_kernels(SvKernel choice);

/// The name of the table `choice` resolves to on this build/CPU: "scalar",
/// "avx2", or "avx512".  This is the provenance string recorded in metrics
/// snapshots and BENCH_fig2.json.
const char* resolved_sv_kernel_name(SvKernel choice);

}  // namespace qs::transforms
