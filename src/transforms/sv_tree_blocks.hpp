// Block structure shared by the tree_* entries of every SvKernels tier.
//
// A power-of-two length n >= kTreeBlock is cut into aligned 64-leaf blocks.
// Each tier reduces a block in its own registers, in the block's subtree
// order; the block sums then enter a binary counter, which adds block b to
// the pending partial of every completed sibling subtree — the upper levels
// of linalg::tree_reduce's tree, in the same order.
//
// The panel passes are the vertical twin for an interleaved panel: every
// column is its own tree over rows, so 64-row blocks reduce level by level
// with whole-row adds, and the block rows merge in the same counter.  They
// are written once, here, in plain C++ that each tier's flags vectorise
// (the power loop takes the run-time-width case); the expressions are
// those of the single-vector entries, so a column's sums are the single
// vector's bits.
//
// Everything here has internal linkage on purpose: the ISA-specific
// translation units (built with -mavx2 / -mavx512f) include this header,
// and an inline function with external linkage compiled there could be the
// copy the linker keeps for the portable code.
#pragma once

#include <cmath>
#include <cstddef>

#include "linalg/tree_reduce.hpp"

namespace qs::transforms {
namespace {

/// Leaves per block: a complete subtree of depth 6.
constexpr std::size_t kTreeBlock = 64;

/// True when [0, n) runs blockwise: n is a power of two of at least one
/// block.  Every other length runs the scalar tree_reduce.
constexpr bool tree_blockwise(std::size_t n) {
  return n >= kTreeBlock && (n & (n - 1)) == 0;
}

/// Depth of the binary counter: enough for 2^64 blocks.
constexpr unsigned kTreeCounterDepth = 64;

/// Binary counter step: block sum `s` of block number `index` (0-based)
/// merges with the pending partial of each completed sibling subtree —
/// the earlier (left) partial on the left, as in tree_reduce.
inline void tree_counter_push(double* pending, std::size_t index, double s) {
  unsigned level = 0;
  for (std::size_t c = index; (c & 1) != 0; c >>= 1) s = pending[level++] + s;
  pending[level] = s;
}

/// The root after a power-of-two number of pushes.
inline double tree_counter_root(const double* pending, std::size_t blocks) {
  unsigned level = 0;
  while ((std::size_t{1} << level) < blocks) ++level;
  return pending[level];
}

/// Column sums of a panel with W doubles per row, each the tree_reduce of
/// its column over [0, rows) bit for bit.  row(r, v) writes row r's values
/// to v and runs once per row, in ascending order.
template <std::size_t W, typename Row>
void tree_rows(std::size_t rows, const Row& row, double* out) {
  if (!tree_blockwise(rows)) {
    double scratch[linalg::tree_reduce_rows_scratch(W, ~std::size_t{0})];
    linalg::tree_reduce_rows<W>(0, rows, W, row, out, scratch);
    return;
  }
  double l[kTreeBlock * W];
  double pending[kTreeCounterDepth * W];
  const std::size_t blocks = rows / kTreeBlock;
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t i = 0; i < kTreeBlock; ++i) row(blk * kTreeBlock + i, l + i * W);
    for (std::size_t w = kTreeBlock / 2; w >= 1; w /= 2) {
      for (std::size_t i = 0; i < w; ++i) {
        double t[W];
        for (std::size_t c = 0; c < W; ++c) t[c] = l[2 * i * W + c] + l[(2 * i + 1) * W + c];
        for (std::size_t c = 0; c < W; ++c) l[i * W + c] = t[c];
      }
    }
    unsigned level = 0;
    for (std::size_t b = blk; (b & 1) != 0; b >>= 1, ++level) {
      for (std::size_t c = 0; c < W; ++c) l[c] = pending[level * W + c] + l[c];
    }
    for (std::size_t c = 0; c < W; ++c) pending[level * W + c] = l[c];
  }
  unsigned level = 0;
  while ((std::size_t{1} << level) < blocks) ++level;
  for (std::size_t c = 0; c < W; ++c) out[c] = pending[level * W + c];
}

/// The check passes and sign sums of an interleaved panel of M
/// columns (M = 0: `m` at run time, reduced by linalg::tree_reduce_rows in
/// `scratch`, tree_reduce_rows_scratch(3m, rows) doubles): the SvKernels
/// panel8_* entries are the M = 8 case.
template <std::size_t M>
void panel_check_sums(const double* x, const double* y, std::size_t rows,
                      std::size_t m, double mu, double* out, double* scratch) {
  if constexpr (M != 0) m = M;
  const auto row = [x, y, m, mu](std::size_t i, double* __restrict v) {
    for (std::size_t c = 0; c < m; ++c) {
      const double xc = x[i * m + c];
      const double yc = y[i * m + c];
      v[c] = xc * xc;
      v[m + c] = xc * yc;
      v[2 * m + c] = std::abs(mu == 0.0 ? yc : yc - mu * xc);
    }
  };
  if constexpr (M != 0) {
    tree_rows<3 * M>(rows, row, out);
  } else {
    linalg::tree_reduce_rows(0, rows, 3 * m, row, out, scratch);
  }
}

template <std::size_t M>
void panel_residual_update(const double* x, double* y, std::size_t rows,
                           std::size_t m, const double* lambda, double mu,
                           const double* inv, double* out, double* scratch) {
  if constexpr (M != 0) m = M;
  const auto row = [x, y, m, lambda, mu, inv](std::size_t i, double* __restrict v) {
    for (std::size_t c = 0; c < m; ++c) {
      const double xc = x[i * m + c];
      const double yc = y[i * m + c];
      const double r = yc - lambda[c] * xc;
      v[c] = r * r;
      y[i * m + c] = (mu == 0.0 ? yc : yc - mu * xc) * inv[c];
    }
  };
  if constexpr (M != 0) {
    tree_rows<M>(rows, row, out);
  } else {
    linalg::tree_reduce_rows(0, rows, m, row, out, scratch);
  }
}

/// A value's positive and negative parts: x or 0.  A NaN, or a zero of
/// either sign, is +0 in both (as maxpd/minpd with a +0 second operand).
inline double positive_part(double x) { return x > 0.0 ? x : 0.0; }
inline double negative_part(double x) { return x < 0.0 ? x : 0.0; }

template <std::size_t M>
void panel_sign_sums(const double* x, std::size_t rows, std::size_t m,
                     double* out, double* scratch) {
  if constexpr (M != 0) m = M;
  const auto row = [x, m](std::size_t i, double* __restrict v) {
    for (std::size_t c = 0; c < m; ++c) {
      v[c] = positive_part(x[i * m + c]);
      v[m + c] = negative_part(x[i * m + c]);
    }
  };
  if constexpr (M != 0) {
    tree_rows<2 * M>(rows, row, out);
  } else {
    linalg::tree_reduce_rows(0, rows, 2 * m, row, out, scratch);
  }
}

inline void panel8_check_sums(const double* x, const double* y, std::size_t rows,
                              double mu, double* out) {
  panel_check_sums<8>(x, y, rows, 8, mu, out, nullptr);
}

inline void panel8_residual_update(const double* x, double* y, std::size_t rows,
                                   const double* lambda, double mu,
                                   const double* inv, double* out) {
  panel_residual_update<8>(x, y, rows, 8, lambda, mu, inv, out, nullptr);
}

inline void panel8_sign_sums(const double* x, std::size_t rows, double* out) {
  panel_sign_sums<8>(x, rows, 8, out, nullptr);
}

}  // namespace
}  // namespace qs::transforms
