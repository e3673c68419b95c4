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
#pragma once

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

}  // namespace qs::linalg
