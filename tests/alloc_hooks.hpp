// What the counting allocation hooks (alloc_hooks.cpp) record beyond the
// allocation count of support/alloc_counter.hpp.  Test binaries only.
#pragma once

#include <cstddef>

namespace qs::test {

/// The largest operator-new request, in bytes, since the last reset.
std::size_t largest_allocation() noexcept;
void reset_largest_allocation() noexcept;

/// The madvise(MADV_HUGEPAGE) calls since the last reset: a workspace with
/// the huge-page advice makes one per buffer it maps itself, and nothing
/// else in the program asks for huge pages, so this counts mapped buffers.
/// Always 0 off Linux.
std::size_t huge_page_advices() noexcept;
void reset_huge_page_advices() noexcept;

}  // namespace qs::test
