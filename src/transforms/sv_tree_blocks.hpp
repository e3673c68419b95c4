// Block structure shared by the tree_* entries of every SvKernels tier.
//
// A power-of-two length n >= kTreeBlock is cut into aligned 64-leaf blocks.
// Each tier reduces a block in its own registers, in the block's subtree
// order; the block sums then enter a binary counter, which adds block b to
// the pending partial of every completed sibling subtree — the upper levels
// of linalg::tree_reduce's tree, in the same order.
//
// Everything here has internal linkage on purpose: the ISA-specific
// translation units (built with -mavx2 / -mavx512f) include this header,
// and an inline function with external linkage compiled there could be the
// copy the linker keeps for the portable code.
#pragma once

#include <cstddef>

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

}  // namespace
}  // namespace qs::transforms
