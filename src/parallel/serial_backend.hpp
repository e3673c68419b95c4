// Serial reference backend: runs every kernel as one chunk on the calling
// thread. This is the "single CPU core" platform of the paper's Figure 2.
#pragma once

#include "parallel/engine.hpp"

namespace qs::parallel {

class SerialBackend final : public Engine {
 public:
  std::string_view name() const override { return "serial"; }
  unsigned concurrency() const override { return 1; }
  void dispatch(std::size_t n, const RangeKernel& kernel) const override;
};

}  // namespace qs::parallel
