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
// Not thread-safe: one workspace serves one solve at a time.  Contents are
// unspecified on take (callers overwrite).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace qs::core {

class Workspace {
 public:
  /// Conventional slot assignments used by the solvers; callers may use any
  /// index — slots are created on demand.
  enum Slot : std::size_t {
    product = 0,    ///< y = W x in the single-vector loops.
    recurrence = 1, ///< Krylov recurrence vector (w in Lanczos/Arnoldi).
    rhs = 2,        ///< Shift-invert right-hand side.
    scratch = 3,    ///< Generic second temporary.
    panel = 4,      ///< Interleaved n x m panel (block power).
    panel_image = 5,///< Its image under W.
    krylov0 = 6,    ///< Inner Krylov solver temporaries (CG: r z p Ap;
    krylov1 = 7,    ///< MINRES: the Lanczos/update vectors).  Distinct from
    krylov2 = 8,    ///< the outer-loop slots so an inner solve never
    krylov3 = 9,    ///< invalidates the outer iterate's buffers.
    krylov4 = 10,
    krylov5 = 11,
    krylov6 = 12
  };

  /// Returns a span of `n` doubles backed by slot `slot`, growing the
  /// backing buffer when needed (never shrinking).  The contents are
  /// unspecified; callers overwrite.  Spans from earlier `take` calls on
  /// the *same* slot are invalidated by growth; distinct slots are stable.
  std::span<double> take(std::size_t slot, std::size_t n);

  /// Bytes currently held across all slots (observability / tests).
  std::size_t bytes() const;

 private:
  /// A slot's buffer: allocated without a zero-fill, so the first take of
  /// a size touches each page once, in the caller's first write.
  struct Buffer {
    std::unique_ptr<double[]> data;
    std::size_t size = 0;
  };
  std::vector<Buffer> slots_;
};

}  // namespace qs::core
