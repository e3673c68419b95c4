// Counting global allocation hooks for the zero-allocation hot-path tests.
//
// Linked into the test binary only: every `operator new` bumps the counter
// read through support/alloc_counter.hpp, which lets a test pin down that a
// solver iteration (power loop through a warm core::Workspace) performs no
// heap allocations at all, and records the largest request
// (alloc_hooks.hpp), which pins down which buffers a solve allocates.  The
// overrides deliberately forward to plain malloc/free — no alignment tricks
// beyond what the standard requires — so they stay boring and obviously
// correct.

#include "alloc_hooks.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include "support/alloc_counter.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace {

std::atomic<std::size_t> largest{0};
std::atomic<std::size_t> huge_page_advice_calls{0};

void note_size(std::size_t size) {
  std::size_t seen = largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !largest.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t size) {
  qs::support::count_allocation();
  note_size(size);
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  qs::support::count_allocation();
  note_size(size);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::size_t qs::test::largest_allocation() noexcept {
  return largest.load(std::memory_order_relaxed);
}

void qs::test::reset_largest_allocation() noexcept {
  largest.store(0, std::memory_order_relaxed);
}

std::size_t qs::test::huge_page_advices() noexcept {
  return huge_page_advice_calls.load(std::memory_order_relaxed);
}

void qs::test::reset_huge_page_advices() noexcept {
  huge_page_advice_calls.store(0, std::memory_order_relaxed);
}

#if defined(__linux__) && defined(MADV_HUGEPAGE)
// Replaces the C library's madvise for the whole test binary (its own
// allocator calls an internal alias, not this one) and forwards every call
// to the system call unchanged.
extern "C" int madvise(void* address, std::size_t length, int advice) noexcept {
  if (advice == MADV_HUGEPAGE) {
    huge_page_advice_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<int>(::syscall(SYS_madvise, address, length, advice));
}
#endif

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  qs::support::count_allocation();
  note_size(size);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  qs::support::count_allocation();
  note_size(size);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
