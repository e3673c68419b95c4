// OpenMP shared-memory backend: the repo's stand-in for the paper's GPU
// (see DESIGN.md, "Substitutions").  dispatch() partitions the index space
// into per-thread chunks exactly as an OpenCL runtime partitions a 1-D
// NDRange into work groups; the implicit barrier at the end of the parallel
// region plays the role of the inter-kernel synchronisation between
// butterfly levels.
#pragma once

#include "parallel/engine.hpp"

namespace qs::parallel {

class OpenMPBackend final : public Engine {
 public:
  std::string_view name() const override;
  unsigned concurrency() const override;
  void dispatch(std::size_t n, const RangeKernel& kernel) const override;
};

}  // namespace qs::parallel
