// Preallocated scratch arena shared across solves.
//
// Every solver loop needs a handful of length-n temporaries (the product
// vector, Krylov recurrence vectors, panel staging).  Allocating them per
// solve is invisible for one solve but adds up across a sweep of hundreds,
// and the ISSUE-4 zero-allocation guarantee for the iteration hot path needs
// a place for buffers to live that outlives a single call.  A Workspace is
// a slot-indexed set of grow-only buffers: `take(slot, n)` returns a span of
// n doubles backed by slot's buffer, growing it when needed and reusing it
// verbatim otherwise.  Slots are stable identifiers chosen by the caller
// (see Slot below for the solver conventions), so repeated solves through
// the same workspace perform zero allocations once the buffers have grown
// to the working size.
//
// Memory: buffers come from operator new, unless the workspace is built
// with an Advice (huge_page_advice): then a buffer of at least
// kHugePageBytes is an anonymous mapping of its own, 2 MiB-aligned and
// advised, so its first touch faults 2 MiB at a time where the host allows
// it (THP mode `always` or `madvise`); under `never`, or where the advice
// fails, it is plain 4 KiB-page memory at the same address.  Smaller
// buffers, and every buffer on hosts without anonymous mappings, still come
// from operator new.  Only callers whose large buffers are fresh memory on
// every solve ask for the advice (DESIGN.md §9 "Memory ownership").
//
// Not thread-safe: one workspace serves one solve at a time.  Contents are
// unspecified on take (callers overwrite).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace qs::core {

namespace detail {
/// Frees a workspace buffer: unmaps `mapped` bytes, or delete[] when 0.
struct WorkspaceFree {
  std::size_t mapped = 0;
  void operator()(double* data) const;
};
}  // namespace detail

class Workspace {
 public:
  /// Conventional slot assignments used by the solvers; callers may use any
  /// index — slots are created on demand.
  enum Slot : std::size_t {
    product = 0,    ///< y = W x in the single-vector loops.
    recurrence = 1, ///< Krylov recurrence vector (w in Arnoldi).
    scratch = 3,    ///< Generic second temporary.
    panel = 4,      ///< Interleaved n x m panel (block power).
    panel_image = 5,///< Its image under W.
    family_iterate = 14   ///< A landscape family's interleaved iterate panel.
  };

  /// In a workspace with an Advice, buffers of at least this many bytes
  /// are huge-page mappings.
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  /// Advises [address, address + bytes) for transparent huge pages;
  /// returns 0 on success, like madvise.
  using Advice = int (*)(void* address, std::size_t bytes);

  /// madvise(MADV_HUGEPAGE) on Linux; elsewhere it fails.
  static int huge_page_advice(void* address, std::size_t bytes);

  /// Null `advice` (the default): every buffer from operator new.
  /// Otherwise `advice` is applied to each buffer of at least
  /// kHugePageBytes, mapped on its own; a failing advice leaves plain
  /// memory (the seam tests use).
  explicit Workspace(Advice advice = nullptr) : advice_(advice) {}

  /// Returns a span of `n` doubles backed by slot `slot`, growing the
  /// backing buffer when needed (never shrinking).  The contents are
  /// unspecified; callers overwrite.  Spans from earlier `take` calls on
  /// the *same* slot are invalidated by growth; distinct slots are stable.
  std::span<double> take(std::size_t slot, std::size_t n);

  /// Bytes currently held across all slots (observability / tests).
  std::size_t bytes() const;

 private:
  using Free = detail::WorkspaceFree;
  /// A slot's buffer: allocated without a zero-fill, so the first take of
  /// a size touches each page once, in the caller's first write.
  struct Buffer {
    std::unique_ptr<double[], Free> data;
    std::size_t size = 0;
  };
  Buffer allocate(std::size_t n) const;

  Advice advice_;
  std::vector<Buffer> slots_;
};

}  // namespace qs::core
