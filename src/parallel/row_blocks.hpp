// Fixed row blocks: the one way a parallel sum is formed.
//
// An engine chunks an index space however its backend likes, and a sum
// whose partials follow those chunks follows the backend's order too.
// RowBlocks fixes the split instead: `rows` rows become blocks() aligned
// power-of-two blocks, one per engine lane, each run inside one dispatch,
// and the blocks' partials are combined by linalg::tree_reduce.  When every
// block's partial is itself the tree_reduce of its rows (the SvKernels
// tree_* entries, linalg::tree_reduce, linalg::tree_reduce_rows), a block is
// a complete subtree of the one-block tree, so the sums are the one-block
// sums bit for bit, on every engine — the argument that makes distributed
// ranks exact.  One block — one lane, a row count that is not a power of
// two, or blocks below kMinFanOutDoubles — runs inline on the calling
// thread.  The power loop, block power and the shift-invert oracles form
// every parallel sum here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "linalg/tree_reduce.hpp"
#include "parallel/engine.hpp"

namespace qs::parallel {

class RowBlocks {
 public:
  /// Below this many doubles per block an engine does not split the rows:
  /// the dispatch would cost more than the block's arithmetic.
  static constexpr std::size_t kMinFanOutDoubles = std::size_t{1} << 12;

  /// `rows` rows of `row_doubles` doubles each, on `engine`.  sums() may be
  /// up to `max_width` wide; each block owns `scratch_doubles` of scratch.
  /// All storage is allocated here, once.
  RowBlocks(const Engine& engine, std::size_t rows, std::size_t row_doubles,
            std::size_t max_width, std::size_t scratch_doubles = 0)
      : engine_(engine), rows_(rows), scratch_doubles_(scratch_doubles) {
    const std::size_t lanes = std::bit_floor(std::max(engine.concurrency(), 1u));
    if (std::has_single_bit(rows) && rows / lanes * row_doubles >= kMinFanOutDoubles) {
      blocks_ = lanes;
      partials_.resize(blocks_ * max_width);
    }
    scratch_.resize(blocks_ * scratch_doubles);
  }

  std::size_t blocks() const { return blocks_; }

  /// Runs body(begin, end) on every block of rows.
  template <typename Body>
  void run(const Body& body) const {
    if (blocks_ == 1) return body(std::size_t{0}, rows_);
    const std::size_t size = rows_ / blocks_;
    engine_.dispatch(blocks_, [&body, size](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) body(b * size, (b + 1) * size);
    });
  }

  /// `width` sums over all rows: body(begin, end, partial) writes its
  /// block's sums to partial[0..width), and out[k] is the tree_reduce of
  /// the blocks' k-th partials (the one block's own, inline).
  template <typename Body>
  void sums(std::size_t width, const Body& body, double* out) {
    if (blocks_ == 1) return body(std::size_t{0}, rows_, out);
    const std::size_t size = rows_ / blocks_;
    double* partials = partials_.data();
    run([&body, partials, size, width](std::size_t begin, std::size_t end) {
      body(begin, end, partials + begin / size * width);
    });
    for (std::size_t k = 0; k < width; ++k) {
      out[k] = linalg::tree_reduce(std::size_t{0}, blocks_,
                                   [partials, width, k](std::size_t b) {
                                     return partials[b * width + k];
                                   });
    }
  }

  /// The scratch of the block that starts at row `begin`.
  double* scratch(std::size_t begin) {
    const std::size_t block = blocks_ == 1 ? 0 : begin / (rows_ / blocks_);
    return scratch_.data() + block * scratch_doubles_;
  }

 private:
  const Engine& engine_;
  std::size_t rows_;
  std::size_t scratch_doubles_;
  std::size_t blocks_ = 1;
  std::vector<double> partials_;
  std::vector<double> scratch_;
};

}  // namespace qs::parallel
