#include "core/workspace.hpp"

namespace qs::core {

std::span<double> Workspace::take(std::size_t slot, std::size_t n) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Buffer& buffer = slots_[slot];
  if (buffer.size < n) {
    buffer.data.reset();
    buffer.data = std::make_unique_for_overwrite<double[]>(n);
    buffer.size = n;
  }
  return std::span<double>(buffer.data.get(), n);
}

std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const Buffer& s : slots_) total += s.size * sizeof(double);
  return total;
}

}  // namespace qs::core
