#include "distributed/reduction.hpp"

namespace qs::distributed {

void TreeEngine::dispatch(std::size_t n, const parallel::RangeKernel& kernel) const {
  if (n != 0) kernel(0, n);
}

double TreeEngine::reduce_partials(std::size_t n,
                                   const parallel::PartialKernel& kernel) const {
  // Single-element kernel invocations: the partial for [i, i+1) is exactly
  // the leaf value, so the combination order is the tree's regardless of how
  // the kernel body would have accumulated a wider range.
  return tree_reduce(std::size_t{0}, n,
                     [&kernel](std::size_t i) { return kernel(i, i + 1); });
}

const parallel::Engine& tree_engine() {
  static const TreeEngine engine;
  return engine;
}

}  // namespace qs::distributed
