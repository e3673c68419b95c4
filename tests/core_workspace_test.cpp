// core::Workspace allocation with an Advice: buffers below kHugePageBytes
// come from operator new; larger ones are their own 2 MiB-aligned mappings,
// advised for huge pages where the host allows it and plain memory where
// the advice fails.  (alloc_guard_test.cpp checks which buffers reach
// operator new.)
#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "core/workspace.hpp"

namespace qs {
namespace {

using core::Workspace;

constexpr std::size_t kLargeDoubles = Workspace::kHugePageBytes / sizeof(double);

std::uintptr_t address(std::span<const double> s) {
  return reinterpret_cast<std::uintptr_t>(s.data());
}

int failing_advice(void*, std::size_t) { return -1; }

int advised_calls = 0;
void* advised_address = nullptr;
std::size_t advised_bytes = 0;
int recording_advice(void* address, std::size_t bytes) {
  ++advised_calls;
  advised_address = address;
  advised_bytes = bytes;
  return 0;
}

/// Writes a ramp into `s` and checks it reads back.
void expect_usable(std::span<double> s) {
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  EXPECT_EQ(s.front(), 0.0);
  EXPECT_EQ(s.back(), static_cast<double>(s.size() - 1));
}

TEST(Workspace, LargeBuffersAreHugePageAligned) {
  Workspace ws(Workspace::huge_page_advice);
  // Exactly one huge page, and a size that is not a multiple of it.
  for (const std::size_t n : {kLargeDoubles, kLargeDoubles + kLargeDoubles / 4 + 3}) {
    SCOPED_TRACE(n);
    const std::span<double> s = ws.take(Workspace::Slot::panel, n);
    ASSERT_EQ(s.size(), n);
#if defined(__linux__)
    EXPECT_EQ(address(s) % Workspace::kHugePageBytes, 0u);
#endif
    expect_usable(s);
  }
  const std::span<double> small = ws.take(Workspace::Slot::scratch, 1000);
  EXPECT_EQ(address(small) % alignof(double), 0u);
  expect_usable(small);
}

TEST(Workspace, FailedAdviceFallsBackToPlainMemory) {
  Workspace ws(failing_advice);
  const std::span<double> s = ws.take(Workspace::Slot::product, 2 * kLargeDoubles);
#if defined(__linux__)
  EXPECT_EQ(address(s) % Workspace::kHugePageBytes, 0u);
#endif
  expect_usable(s);
  EXPECT_EQ(ws.bytes(), 2 * Workspace::kHugePageBytes);
}

TEST(Workspace, OnlyLargeBuffersAreAdvised) {
  Workspace ws(recording_advice);
  advised_calls = 0;
  ws.take(Workspace::Slot::scratch, kLargeDoubles - 1);
  EXPECT_EQ(advised_calls, 0);
  const std::span<double> s = ws.take(Workspace::Slot::product, kLargeDoubles + 1);
#if defined(__linux__)
  // The whole page-rounded mapping, from its aligned start.
  EXPECT_EQ(advised_calls, 1);
  EXPECT_EQ(advised_address, static_cast<void*>(s.data()));
  EXPECT_GE(advised_bytes, (kLargeDoubles + 1) * sizeof(double));
  EXPECT_LT(advised_bytes, (kLargeDoubles + 1) * sizeof(double) + 65536);
#endif
  expect_usable(s);
}

TEST(Workspace, RetakesReuseTheBufferAndGrowthReplacesIt) {
  Workspace ws(Workspace::huge_page_advice);
  const std::span<double> first = ws.take(Workspace::Slot::panel, kLargeDoubles);
  EXPECT_EQ(ws.take(Workspace::Slot::panel, kLargeDoubles / 2).data(), first.data());
  EXPECT_EQ(ws.take(Workspace::Slot::panel, kLargeDoubles).data(), first.data());
  const std::span<double> grown = ws.take(Workspace::Slot::panel, 2 * kLargeDoubles);
  expect_usable(grown);
  EXPECT_EQ(ws.bytes(), 2 * Workspace::kHugePageBytes);
}

}  // namespace
}  // namespace qs
