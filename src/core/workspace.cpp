#include "core/workspace.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace qs::core {
namespace {

std::size_t round_up(std::size_t bytes, std::size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

#if defined(__linux__)
std::size_t page_bytes() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// An anonymous mapping of `length` bytes starting on a kHugePageBytes
/// boundary, or nullptr.  It over-maps by one huge page and unmaps the
/// misaligned head and the unused tail, so the kernel can back every whole
/// 2 MiB stretch of it with one huge page.
void* map_aligned(std::size_t length) {
  constexpr std::size_t align = Workspace::kHugePageBytes;
  void* raw = ::mmap(nullptr, length + align, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = round_up(start, align);
  const std::size_t head = aligned - start;
  if (head != 0) ::munmap(raw, head);
  if (head != align) ::munmap(reinterpret_cast<void*>(aligned + length), align - head);
  return reinterpret_cast<void*>(aligned);
}
#endif

}  // namespace

int Workspace::huge_page_advice([[maybe_unused]] void* address,
                                [[maybe_unused]] std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  return ::madvise(address, bytes, MADV_HUGEPAGE);
#else
  return -1;
#endif
}

void detail::WorkspaceFree::operator()(double* data) const {
#if defined(__linux__)
  if (mapped != 0) {
    ::munmap(data, mapped);
    return;
  }
#endif
  delete[] data;
}

Workspace::Buffer Workspace::allocate(std::size_t n) const {
  Buffer buffer;
  buffer.size = n;
#if defined(__linux__)
  if (advice_ != nullptr && n * sizeof(double) >= kHugePageBytes) {
    const std::size_t length = round_up(n * sizeof(double), page_bytes());
    if (void* mapped = map_aligned(length)) {
      buffer.data = std::unique_ptr<double[], Free>(static_cast<double*>(mapped),
                                                    Free{length});
      // A failed advice leaves the mapping plain 4 KiB-page memory.
      (void)advice_(mapped, length);
      return buffer;
    }
  }
#endif
  buffer.data = std::unique_ptr<double[], Free>(new double[n]);
  return buffer;
}

std::span<double> Workspace::take(std::size_t slot, std::size_t n) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Buffer& buffer = slots_[slot];
  if (buffer.size < n) {
    buffer = Buffer{};
    buffer = allocate(n);
  }
  return std::span<double>(buffer.data.get(), n);
}

std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const Buffer& s : slots_) total += s.size * sizeof(double);
  return total;
}

}  // namespace qs::core
