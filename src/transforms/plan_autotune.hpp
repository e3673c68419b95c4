// BlockedPlan autotuning: pick tile_log2/chunk_log2 for the banded kernels.
//
// The defaults BlockedPlan{14, 6} were hand-tuned for one machine; the right
// tile is a function of the cache hierarchy (a tile of 2^tile_log2 * m
// doubles should stay resident across all the levels of a band) and of the
// problem size.  Two mechanisms, composed:
//
//   1. detect_cache_hierarchy() reads the sizes of the L1d/L2/L3 data caches
//      from sysfs (Linux); cache_heuristic_plan() turns them into a starting
//      plan when detection succeeds.
//   2. autotune_blocked_plan() *measures* a small candidate grid around the
//      heuristic — always including the default plan — at the actual problem
//      size and panel width, and returns the fastest.  Because the default is
//      always among the candidates and wins ties, the tuned plan is never
//      slower than the default (up to timing noise).
//
// One autotune costs a few dozen banded matvecs at size 2^nu; amortised over
// a power-iteration solve of hundreds of products it is noise.
#pragma once

#include <cstddef>
#include <vector>

#include "parallel/engine.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::transforms {

/// Data-cache sizes in bytes; 0 when a level is absent or unreadable.
struct CacheHierarchy {
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
  bool detected = false;  ///< true iff at least L1d or L2 was read
};

/// Reads /sys/devices/system/cpu/cpu0/cache/index*/ (Linux). On other
/// platforms or restricted containers returns detected == false.
CacheHierarchy detect_cache_hierarchy();

/// A plan derived from cache sizes alone (no measurement): the tile targets
/// about a third of L2 (in rows of m doubles — of 8 for m == 1 on a SIMD sv
/// table, see BlockedPlan), the chunk about an eighth of L1d per
/// gather-panel row.  Falls back to the default plan when detection failed.
BlockedPlan cache_heuristic_plan(const CacheHierarchy& caches, std::size_t m = 1);

/// One measured candidate.
struct PlanTiming {
  BlockedPlan plan;
  double seconds = 0.0;  ///< best-of-`repeats` wall time of one banded matvec
};

/// Autotune outcome: the chosen plan plus everything that was measured.
struct AutotuneReport {
  BlockedPlan best;
  CacheHierarchy caches;
  std::vector<PlanTiming> timings;  ///< all candidates; timings[0] is the default plan
};

/// Measures a candidate grid (default plan, cache-heuristic plan, and
/// tile/chunk neighbours) on a synthetic uniform-mutation banded matvec of
/// size 2^nu with panel width m, through `engine`, and returns the fastest.
/// The default plan is candidate 0 and is kept unless a candidate beats it
/// by more than ~1% (so noise can not make the tuned plan a regression).
///
/// For m == 1 the workload is the *single-vector* banded kernel (the one
/// default solves run) — the m = 8 panel of its N/8 rows, so tile and
/// chunk count rows of 8 — and a second stage measures the single-vector
/// microkernel tier x fused radix of the levels >= 3 sweep — scalar at
/// radix 8, then {sv-avx2, sv-avx512} x {radix-4, radix-8} restricted to
/// tiers this build/CPU supports — with tile/chunk
/// pinned at the stage-1 winner.  A tier/radix choice is adopted
/// only when it beats the stage-1 pick (automatic tier, radix 8) by more
/// than ~1%; every measured combination lands in the report's timings, so
/// tier selection is auditable.  All combinations are bit-identical — this
/// stage tunes speed only.  Requires 1 <= nu <= kMaxChainLength and m >= 1.
AutotuneReport autotune_blocked_plan(unsigned nu, const parallel::Engine& engine,
                                     std::size_t m = 1, unsigned repeats = 3);

}  // namespace qs::transforms
