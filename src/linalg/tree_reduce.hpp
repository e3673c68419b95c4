// The one summation order of the power iteration: a complete binary tree.
//
// Floating-point addition is not associative, so "the sum of a vector" is
// only defined once an order is fixed.  Every reduction of the power
// iteration — serial facade, distributed ranks, start vector, final
// normalisation — uses the tree below, split at bit_ceil(n)/2.  Two
// properties make it the right order to standardise on:
//
//   * an aligned power-of-two sub-range is a complete subtree, so a sum
//     over blocks (SIMD leaf blocks, or one block per rank) combined in the
//     upper levels of the same tree reproduces the whole-vector sum exactly;
//   * its leaves pair adjacent elements and its levels are independent, so
//     SIMD kernels can evaluate it in registers instead of along one
//     dependent add chain (transforms/sv_microkernel.hpp).
//
// The power loop sums each column of an interleaved panel in the same
// order, over rows (tree_reduce_rows below).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>

namespace qs::linalg {

/// Binary-tree reduction of leaf(i) over [begin, end).  The tree splits at
/// the largest power of two below the range size, so power-of-two ranges
/// halve exactly and aligned sub-ranges are complete subtrees of the
/// enclosing range's tree.  Every leaf is evaluated exactly once.
template <typename Leaf>
double tree_reduce(std::size_t begin, std::size_t end, const Leaf& leaf) {
  const std::size_t n = end - begin;
  switch (n) {
    case 0: return 0.0;
    case 1: return leaf(begin);
    case 2: return leaf(begin) + leaf(begin + 1);
    case 4: return (leaf(begin) + leaf(begin + 1)) +
                   (leaf(begin + 2) + leaf(begin + 3));
    default: break;
  }
  const std::size_t half = std::bit_ceil(n) / 2;
  return tree_reduce(begin, begin + half, leaf) +
         tree_reduce(begin + half, end, leaf);
}

/// Doubles per leaf of tree_reduce_rows: a leaf's rows are reduced level by
/// level in a buffer this size, so the recursion is paid once per leaf, not
/// once per row.
constexpr std::size_t kRowLeafDoubles = 256;

/// Rows per leaf of tree_reduce_rows for rows `width` doubles wide.
constexpr std::size_t row_leaf_rows(std::size_t width) {
  return std::bit_floor(std::max<std::size_t>(kRowLeafDoubles / width, 1));
}

/// Scratch doubles tree_reduce_rows needs for up to `rows` rows.
constexpr std::size_t tree_reduce_rows_scratch(std::size_t width, std::size_t rows) {
  return (row_leaf_rows(width) + static_cast<std::size_t>(std::bit_width(rows))) *
         width;
}

namespace detail {

template <std::size_t W, typename Row>
void tree_reduce_rows(std::size_t begin, std::size_t end, std::size_t width,
                      const Row& row, double* out, double* leaf, double* stack) {
  const std::size_t w = W != 0 ? W : width;
  const std::size_t n = end - begin;
  if (n <= row_leaf_rows(w) && std::has_single_bit(n)) {
    // A power-of-two leaf: the complete binary tree, one level at a time.
    for (std::size_t r = 0; r < n; ++r) row(begin + r, leaf + r * w);
    for (std::size_t half = n / 2; half >= 1; half /= 2) {
      for (std::size_t r = 0; r < half; ++r) {
        double* d = leaf + r * w;
        const double* a = leaf + 2 * r * w;
        const double* b = a + w;
        for (std::size_t c = 0; c < w; ++c) d[c] = a[c] + b[c];
      }
    }
    for (std::size_t c = 0; c < w; ++c) out[c] = leaf[c];
    return;
  }
  const std::size_t half = std::bit_ceil(n) / 2;
  tree_reduce_rows<W>(begin, begin + half, w, row, out, leaf, stack);
  tree_reduce_rows<W>(begin + half, end, w, row, stack, leaf, stack + w);
  for (std::size_t c = 0; c < w; ++c) out[c] += stack[c];
}

}  // namespace detail

/// Column-wise tree_reduce over a stream of rows `width` doubles wide (an
/// interleaved panel's rows, or several panels' rows side by side):
/// out[c] == tree_reduce(begin, end, i -> row_i[c]) bit for bit, for every
/// c < width.  `row(i, v)` writes row i's values to v[0..width) and may
/// write row i's output in the same visit; every row is visited once, in
/// ascending order.  `scratch` holds tree_reduce_rows_scratch(width,
/// end - begin) doubles.  W is the width when known at compile time (0:
/// `width`), so the per-column loops of common widths run at a fixed trip
/// count.
template <std::size_t W = 0, typename Row>
void tree_reduce_rows(std::size_t begin, std::size_t end, std::size_t width,
                      const Row& row, double* out, double* scratch) {
  const std::size_t w = W != 0 ? W : width;
  if (begin == end) {
    std::fill(out, out + w, 0.0);
    return;
  }
  detail::tree_reduce_rows<W>(begin, end, w, row, out, scratch,
                              scratch + row_leaf_rows(w) * w);
}

}  // namespace qs::linalg
