// What the counting allocation hooks (alloc_hooks.cpp) record beyond the
// allocation count of support/alloc_counter.hpp.  Test binaries only.
#pragma once

#include <cstddef>

namespace qs::test {

/// The largest operator-new request, in bytes, since the last reset.
std::size_t largest_allocation() noexcept;
void reset_largest_allocation() noexcept;

}  // namespace qs::test
