#include "transforms/plan_autotune.hpp"

#include <algorithm>
#include <fstream>
#include <string>

#include "obs/trace.hpp"
#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "support/timer.hpp"
#include "transforms/butterfly.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::transforms {
namespace {

/// Parses a sysfs cache size string ("48K", "2048K", "8M"); 0 on failure.
std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[pos] - '0');
    ++pos;
  }
  if (pos == 0) return 0;
  if (pos < text.size()) {
    const char unit = text[pos];
    if (unit == 'K' || unit == 'k') value <<= 10;
    else if (unit == 'M' || unit == 'm') value <<= 20;
    else if (unit == 'G' || unit == 'g') value <<= 30;
  }
  return value;
}

std::string read_sysfs_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

unsigned floor_log2(std::size_t v) {
  unsigned l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

template <typename T>
T clamp_range(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

CacheHierarchy detect_cache_hierarchy() {
  CacheHierarchy c;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx) + "/";
    const std::string level = read_sysfs_line(dir + "level");
    if (level.empty()) {
      if (idx == 0) break;  // no cache directory at all
      continue;
    }
    const std::string type = read_sysfs_line(dir + "type");
    if (type == "Instruction") continue;
    const std::size_t bytes = parse_cache_size(read_sysfs_line(dir + "size"));
    if (bytes == 0) continue;
    if (level == "1") c.l1d_bytes = bytes;
    else if (level == "2") c.l2_bytes = bytes;
    else if (level == "3") c.l3_bytes = bytes;
  }
  c.detected = c.l1d_bytes != 0 || c.l2_bytes != 0;
  return c;
}

BlockedPlan cache_heuristic_plan(const CacheHierarchy& caches, std::size_t m) {
  require(m >= 1, "cache_heuristic_plan: panel width m must be >= 1");
  BlockedPlan plan;  // defaults
  if (!caches.detected) return plan;
  // A single vector runs as rows of 8 doubles.
  const std::size_t row = m == 1 ? 8 : m;
  if (caches.l2_bytes != 0) {
    // Tile of 2^t rows targeting ~L2/3: the band touches the tile once per
    // level plus the working set of x and y halves.
    const std::size_t doubles = caches.l2_bytes / (3 * sizeof(double) * row);
    plan.tile_log2 = clamp_range(floor_log2(std::max<std::size_t>(doubles, 2)),
                                 10u, 18u);
  }
  if (caches.l1d_bytes != 0) {
    // A gather-panel step streams 2^b rows of 2^chunk * m doubles; keep one
    // row pair within ~L1/8 so the butterfly pair stays L1-resident.
    const std::size_t doubles = caches.l1d_bytes / (8 * sizeof(double) * row);
    plan.chunk_log2 = clamp_range(floor_log2(std::max<std::size_t>(doubles, 2)),
                                  4u, 8u);
  }
  if (plan.tile_log2 <= plan.chunk_log2) plan.tile_log2 = plan.chunk_log2 + 1;
  return plan;
}

AutotuneReport autotune_blocked_plan(unsigned nu, const parallel::Engine& engine,
                                     std::size_t m, unsigned repeats) {
  require(nu >= 1 && nu <= kMaxChainLength,
          "autotune_blocked_plan: chain length out of range");
  require(m >= 1, "autotune_blocked_plan: panel width m must be >= 1");
  require(repeats >= 1, "autotune_blocked_plan: need at least one repeat");

  AutotuneReport report;
  report.caches = detect_cache_hierarchy();

  // Candidate grid: default first (it is the never-regress baseline), the
  // cache heuristic, then tile/chunk neighbours around both.
  std::vector<BlockedPlan> candidates;
  const auto add = [&candidates](BlockedPlan p) {
    if (p.tile_log2 <= p.chunk_log2) p.tile_log2 = p.chunk_log2 + 1;
    for (const BlockedPlan& q : candidates) {
      if (q.tile_log2 == p.tile_log2 && q.chunk_log2 == p.chunk_log2 &&
          q.sv_kernel == p.sv_kernel && q.sv_max_radix == p.sv_max_radix) {
        return;
      }
    }
    candidates.push_back(p);
  };
  const BlockedPlan def{};
  add(def);
  const BlockedPlan heur = cache_heuristic_plan(report.caches, m);
  add(heur);
  for (const BlockedPlan& center : {def, heur}) {
    for (int dt = -2; dt <= 2; ++dt) {
      for (int dc = -1; dc <= 1; ++dc) {
        BlockedPlan p;
        p.tile_log2 = clamp_range<int>(static_cast<int>(center.tile_log2) + dt,
                                       8, 20);
        p.chunk_log2 = clamp_range<int>(static_cast<int>(center.chunk_log2) + dc,
                                        3, 10);
        add(p);
      }
    }
  }

  // Synthetic workload: the uniform banded matvec at the real size and panel
  // width (the memory-traffic pattern is landscape-independent).
  const std::size_t n = std::size_t{1} << nu;
  const std::vector<Factor2> factors(nu, Factor2::uniform(0.01));
  std::vector<double> panel(n * m);
  for (std::size_t i = 0; i < panel.size(); ++i) {
    panel[i] = 1.0 + 1e-6 * static_cast<double>(i % 97);
  }

  // For m == 1 measure the *single-vector* banded kernel — the one default
  // solves and the Krylov cycles actually run; panels keep the panel
  // workload and the stage-1 tier and radix (automatic, 8).
  const auto measure = [&](const BlockedPlan& plan) {
    // Warm-up rep first (first-touch, frequency ramp), then best-of-repeats.
    if (m == 1) {
      apply_blocked_butterfly(panel, factors, engine, plan);
      return qs::best_of_seconds(
          repeats, [&] { apply_blocked_butterfly(panel, factors, engine, plan); });
    }
    apply_blocked_panel_butterfly(panel, m, factors, engine, plan);
    return qs::best_of_seconds(repeats, [&] {
      apply_blocked_panel_butterfly(panel, m, factors, engine, plan);
    });
  };

  QS_TRACE_SPAN_ARG("autotune.measure", autotune, static_cast<int>(nu));
  report.timings.reserve(candidates.size());
  for (const BlockedPlan& plan : candidates) {
    const double best = measure(plan);
    report.timings.push_back({plan, best});
    // arg encodes the candidate: tile_log2 * 100 + chunk_log2.
    QS_TRACE_INSTANT_ARG("autotune.candidate", autotune, best,
                         plan.tile_log2 * 100 + plan.chunk_log2);
  }

  // Argmin with a ~1% hysteresis in favour of the default: timing noise must
  // not turn the tuned plan into a regression against the fixed plan.
  const double default_seconds = report.timings.front().seconds;
  report.best = def;
  double best_seconds = default_seconds;
  for (const PlanTiming& t : report.timings) {
    if (t.seconds < best_seconds) {
      report.best = t.plan;
      best_seconds = t.seconds;
    }
  }
  if (best_seconds >= 0.99 * default_seconds) {
    report.best = def;
    best_seconds = default_seconds;
  }

  // Stage 2 (single-vector only): with tile/chunk pinned at the stage-1
  // winner, measure the microkernel tier x fused-radix matrix the build and
  // CPU support.  Stage 1 ran (automatic, radix 8); a specific combination
  // is adopted only when it beats that pick by the same ~1% hysteresis.
  // Every combination is bit-identical, so this tunes speed only — but the
  // rows land in the report either way, making tier selection auditable
  // (including the case where the scalar table wins).
  if (m == 1) {
    std::vector<BlockedPlan> sv_candidates;
    BlockedPlan base = report.best;
    base.sv_kernel = SvKernel::scalar;
    base.sv_max_radix = 8;
    sv_candidates.push_back(base);
    if (avx2_sv_kernels() != nullptr) {
      base.sv_kernel = SvKernel::avx2;
      base.sv_max_radix = 4;
      sv_candidates.push_back(base);
      base.sv_max_radix = 8;
      sv_candidates.push_back(base);
    }
    if (avx512_sv_kernels() != nullptr) {
      base.sv_kernel = SvKernel::avx512;
      base.sv_max_radix = 4;
      sv_candidates.push_back(base);
      base.sv_max_radix = 8;
      sv_candidates.push_back(base);
    }
    for (const BlockedPlan& plan : sv_candidates) {
      const double best = measure(plan);
      report.timings.push_back({plan, best});
      QS_TRACE_INSTANT_ARG("autotune.sv_candidate", autotune, best,
                           static_cast<int>(plan.sv_kernel) * 100 +
                               static_cast<int>(plan.sv_max_radix));
      if (best < 0.99 * best_seconds) {
        report.best = plan;
        best_seconds = best;
      }
    }
  }
  return report;
}

}  // namespace qs::transforms
