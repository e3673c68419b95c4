// Deterministic tree-ordered reductions for the distributed layer.
//
// A distributed sum must not depend on how many ranks computed it, or the
// promise "the distributed solve is bit-identical to the serial facade for
// every rank count" is unkeepable: floating-point addition is not
// associative, and the serial engine's left-to-right order is exactly the
// one a blocked decomposition cannot reproduce.  This module fixes ONE
// summation order — the complete binary tree over the (power-of-two) index
// space — chosen because it is the order a recursive-doubling allreduce on
// a hypercube computes for free:
//
//   * within a rank, the block partial is the binary tree over the block
//     (an aligned power-of-two block is a complete subtree of the global
//     tree);
//   * across ranks, combining partners in bit order (bit 0 first) builds
//     ((r0+r1)+(r2+r3))+... — the remaining upper levels of the same tree.
//
// The grand total therefore equals the binary tree over the full vector,
// bit for bit, for ANY power-of-two rank count — including rank_count = 1.
// Serial, engine-parallel and distributed solves all run one power loop
// (solvers::run_power_loop) whose every sum is this tree, taken by the
// fused tree_* entries of transforms::SvKernels, which is why their
// residual streams agree exactly (see docs/distributed.md).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "linalg/tree_reduce.hpp"
#include "parallel/engine.hpp"

namespace qs::distributed {

/// The binary-tree reduction every sum of this layer uses (defined in
/// linalg/tree_reduce.hpp, shared with the serial power loop's kernels).
using linalg::tree_reduce;

/// Tree-ordered sum of a span.
inline double tree_sum(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return p[i]; });
}

/// Tree-ordered 1-norm.
inline double tree_abs_sum(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return std::abs(p[i]); });
}

/// Tree-ordered sum of squares.
inline double tree_sum_squares(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return p[i] * p[i]; });
}

/// Tree-ordered inner product.  Requires equal lengths.
inline double tree_dot(std::span<const double> a, std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  return tree_reduce(std::size_t{0}, a.size(),
                     [pa, pb](std::size_t i) { return pa[i] * pb[i]; });
}

/// The serial engine.  Every sum of the solvers is tree-ordered whatever
/// the engine, so this name no longer selects anything; it remains for
/// existing callers.
inline const parallel::Engine& tree_engine() { return parallel::serial_engine(); }

}  // namespace qs::distributed
