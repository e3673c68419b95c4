// An engine as a fan-out with a fixed summation order.
//
// Engine::dispatch chunks an index space however the backend likes, and
// Engine::reduce_partials combines partials in a backend-defined order, so
// neither can carry a reduction that must give the same bits on every
// engine.  FanOut fixes the split instead: [0, n) becomes `blocks()` aligned
// power-of-two blocks, one per lane, each run inside one dispatch.  A block
// is a complete subtree of the whole range's linalg::tree_reduce tree, so
// block partials combined with tree_reduce are the one-block sums bit for
// bit (the argument that makes distributed ranks exact).  Both the power
// loop (solvers/power_iteration.cpp) and the landscape-family loop
// (analysis/sweep.cpp) run their reduction passes through it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "linalg/tree_reduce.hpp"
#include "parallel/engine.hpp"

namespace qs::parallel {

/// Below this many doubles per block an engine does not split a pass: the
/// dispatch would cost more than the block's arithmetic.
constexpr std::size_t kMinFanOutBlock = std::size_t{1} << 12;

/// [0, n) split into aligned power-of-two blocks, one per engine lane.  One
/// block — one lane, a length that is not a power of two, or blocks below
/// kMinFanOutBlock doubles — runs inline on the calling thread.
class FanOut {
 public:
  /// `row_doubles` is how many doubles one index stands for (a panel row of
  /// m columns is m), `max_width` the most sums one sums() call returns.
  /// All storage is allocated here, once per solve, never per pass.
  FanOut(const Engine& engine, std::size_t n, std::size_t max_width = 2,
         std::size_t row_doubles = 1)
      : engine_(engine), n_(n) {
    const std::size_t lanes = std::bit_floor(std::max(engine.concurrency(), 1u));
    if (std::has_single_bit(n) && n / lanes * row_doubles >= kMinFanOutBlock) {
      count_ = lanes;
      partials_.resize(count_ * max_width);
    }
  }

  /// Number of blocks, and the indices per block.
  std::size_t blocks() const { return count_; }
  std::size_t block_size() const { return n_ / count_; }

  /// Runs body(begin, end) on every block.
  template <typename Body>
  void run(const Body& body) const {
    if (count_ == 1) {
      body(std::size_t{0}, n_);
      return;
    }
    const std::size_t size = n_ / count_;
    engine_.dispatch(count_, [&body, size](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) body(b * size, (b + 1) * size);
    });
  }

  /// `width` tree-ordered sums over the whole range: body(begin, end,
  /// partial) writes its block's sums to partial[0..width), and out[k] is
  /// the tree_reduce of the blocks' k-th partials.  Requires width <=
  /// max_width.
  template <typename Body>
  void sums(std::size_t width, const Body& body, double* out) {
    if (count_ == 1) {
      body(std::size_t{0}, n_, out);
      return;
    }
    const std::size_t size = n_ / count_;
    double* partials = partials_.data();
    run([&body, partials, size, width](std::size_t begin, std::size_t end) {
      body(begin, end, partials + begin / size * width);
    });
    for (std::size_t k = 0; k < width; ++k) {
      const auto partial = [partials, width, k](std::size_t b) {
        return partials[b * width + k];
      };
      out[k] = linalg::tree_reduce(std::size_t{0}, count_, partial);
    }
  }

 private:
  const Engine& engine_;
  std::size_t n_;
  std::size_t count_ = 1;
  std::vector<double> partials_;
};

}  // namespace qs::parallel
