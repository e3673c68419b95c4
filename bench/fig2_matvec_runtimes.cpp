// Figure 2 reproduction: runtimes of the implicit matrix-vector products
// W x = (Q F) x on a single CPU core, extended with the engine-backed Fmmp
// columns (per-level Algorithm 2 vs the cache-blocked banded kernel), the
// multi-vector panel kernel, and the BlockedPlan autotuner.
//
// Series (as in the paper): Xmvp(nu) — fully accurate sparsified XOR
// product, cost Theta(N^2), equivalent to Smvp up to constants; Xmvp(1) —
// the coarsest sparsification, Theta(N (nu+1)); Fmmp — the paper's exact
// fast product, Theta(N log2 N), timed as the paper's serial Algorithm 1
// (reference::ReferenceFmmp: scale + level sweeps + scale).  The paper's
// expectation: Fmmp undercuts even Xmvp(1) already for small nu while being
// exact.
//
// Engine columns: per-level runs the reference Algorithm 2, one kernel per
// butterfly level (nu sweeps + 2 scaling sweeps per matvec); blocked is the
// production FmmpOperator, which launches one kernel per
// level *band* with the diagonal F-scalings fused into the first/last band
// (~nu/B sweeps).  Expected: blocked strictly faster at nu >= 20 on the
// thread_pool backend.
//
// Panel columns: one banded product applied to an interleaved panel of m
// vectors (FmmpOperator::apply_panel) vs m sequential single-vector blocked
// products over distinct vector pairs on the same backend — exactly the
// work a block subspace iteration performs per round without the panel
// kernel.  per-vector speedup = t_seq / t_panel; the memory-bound regime
// (large nu) is where the amortisation pays.  m = 16 and 32 sweep at full
// width (transforms::apply_blocked_panel_butterfly_fused) and are measured
// wherever the panel buffer pair fits in 4 GiB (printed as "-" otherwise);
// the sequential baseline reuses at most 8 distinct buffer pairs cycled
// m/8 times so baseline memory stays capped regardless of m.
//
// Autotune columns: the measured-candidate BlockedPlan autotuner vs the
// fixed default plan (2^14, 2^6) at every nu.  The default is always among
// the measured candidates and wins ties, so tuned <= default up to noise.
//
// Size caps (defaults; override with QS_BENCH_MAX_NU): Fmmp/Xmvp(1) to
// nu = 22, the quadratic Xmvp(nu) to nu = 14 — beyond that its cost is
// extrapolated from the measured slope, exactly as the paper extrapolates
// its reference beyond nu = 21.
//
// Besides the human-readable tables + CSV, the full measurement set is
// written as machine-readable JSON to BENCH_fig2.json (override the path
// with QS_BENCH_JSON).
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "reference/fmmp.hpp"
#include "reference/xmvp.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "transforms/panel_butterfly.hpp"
#include "transforms/plan_autotune.hpp"
#include "transforms/sv_microkernel.hpp"

namespace {

struct PanelPoint {
  std::string backend;
  std::size_t m = 0;
  double seconds = 0.0;             // one panel product, all m vectors
  double seq_seconds = 0.0;         // m sequential products, distinct vectors
  double per_vector_speedup = 0.0;  // seq / panel
};

struct AutotunePoint {
  qs::transforms::BlockedPlan tuned;
  double default_seconds = 0.0;
  double tuned_seconds = 0.0;
  std::size_t candidates = 0;
};

struct Fig2Row {
  unsigned nu = 0;
  std::size_t n = 0;
  double xmvp_full_s = 0.0;
  bool xmvp_full_extrapolated = false;
  double xmvp1_s = 0.0;
  double fmmp_s = 0.0;
  double serial_blocked_s = 0.0;
  double pool_level_s = 0.0;
  double pool_blocked_s = 0.0;
  std::vector<PanelPoint> panel;
  AutotunePoint autotune;
};

void write_json(const std::string& path, double p, unsigned max_nu,
                const std::vector<Fig2Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not open " << path << " for writing\n";
    return;
  }
  out.precision(9);
  // Provenance: why two hosts produce different rows.  Mirrors the
  // simd_tier / plan.* keys of the --metrics snapshot (src/obs/metrics.hpp)
  // so bench JSON and solver telemetry can be joined on the same fields.
  // One kernel table serves every width, so the three tier keys (kept for
  // the committed rows' schema) all name it.
  const auto caches = qs::transforms::detect_cache_hierarchy();
  const qs::transforms::BlockedPlan default_plan{};
  const char* tier = qs::transforms::resolved_sv_kernel_name(default_plan.sv_kernel);
  out << "{\n"
      << "  \"figure\": \"fig2\",\n"
      << "  \"p\": " << p << ",\n"
      << "  \"max_nu\": " << max_nu << ",\n"
      << "  \"panel_kernels\": \"" << tier << "\",\n"
      << "  \"provenance\": {\n"
      << "    \"simd_tier\": \"" << tier << "\",\n"
      << "    \"sv_kernel\": \"" << tier << "\",\n"
      << "    \"sv_max_radix\": " << default_plan.sv_max_radix << ",\n"
      << "    \"default_tile_log2\": " << default_plan.tile_log2 << ",\n"
      << "    \"default_chunk_log2\": " << default_plan.chunk_log2 << ",\n"
      << "    \"cache_detected\": " << (caches.detected ? "true" : "false")
      << ",\n"
      << "    \"l1d_bytes\": " << caches.l1d_bytes << ",\n"
      << "    \"l2_bytes\": " << caches.l2_bytes << ",\n"
      << "    \"l3_bytes\": " << caches.l3_bytes << "\n"
      << "  },\n"
      << "  \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Fig2Row& row = rows[r];
    out << "    {\n"
        << "      \"nu\": " << row.nu << ",\n"
        << "      \"n\": " << row.n << ",\n"
        << "      \"xmvp_full_s\": " << row.xmvp_full_s << ",\n"
        << "      \"xmvp_full_extrapolated\": "
        << (row.xmvp_full_extrapolated ? "true" : "false") << ",\n"
        << "      \"xmvp1_s\": " << row.xmvp1_s << ",\n"
        << "      \"fmmp_s\": " << row.fmmp_s << ",\n"
        << "      \"fmmp_serial_blocked_s\": " << row.serial_blocked_s << ",\n"
        << "      \"fmmp_pool_level_s\": " << row.pool_level_s << ",\n"
        << "      \"fmmp_pool_blocked_s\": " << row.pool_blocked_s << ",\n"
        << "      \"panel\": [\n";
    for (std::size_t i = 0; i < row.panel.size(); ++i) {
      const PanelPoint& pt = row.panel[i];
      out << "        {\"backend\": \"" << pt.backend << "\", \"m\": " << pt.m
          << ", \"seconds\": " << pt.seconds
          << ", \"sequential_seconds\": " << pt.seq_seconds
          << ", \"per_vector_speedup\": " << pt.per_vector_speedup << "}"
          << (i + 1 < row.panel.size() ? "," : "") << "\n";
    }
    out << "      ],\n"
        << "      \"autotune\": {\"tile_log2\": " << row.autotune.tuned.tile_log2
        << ", \"chunk_log2\": " << row.autotune.tuned.chunk_log2
        << ", \"sv_kernel\": \""
        << qs::transforms::resolved_sv_kernel_name(row.autotune.tuned.sv_kernel)
        << "\", \"sv_max_radix\": " << row.autotune.tuned.sv_max_radix
        << ", \"default_s\": " << row.autotune.default_seconds
        << ", \"tuned_s\": " << row.autotune.tuned_seconds
        << ", \"candidates\": " << row.autotune.candidates << "}\n"
        << "    }" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main() {
  using namespace qs;
  const unsigned max_nu = bench::env_unsigned("QS_BENCH_MAX_NU", 22);
  const unsigned max_quadratic_nu = std::min(14u, max_nu);
  const double p = 0.01;
  const char* json_env = std::getenv("QS_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_fig2.json";

  const auto serial_engine = parallel::make_engine(parallel::Backend::serial);
  const auto pool_engine = parallel::make_engine(parallel::Backend::thread_pool);
  const std::vector<std::pair<const char*, const parallel::Engine*>> backends = {
      {"serial", serial_engine.get()},
      {"thread_pool", pool_engine.get()}};
  const std::vector<std::size_t> widths = {2, 4, 8, 16, 32};
  // Widths whose interleaved xp/yp pair would not fit in this budget are
  // skipped (table shows "-"); on typical hosts everything up to m = 32 at
  // nu = 22 (2 GiB pair) runs.
  constexpr std::size_t kWidePanelByteCap = std::size_t{4} << 30;

  std::cout << "# Figure 2: single mat-vec runtimes, p = " << p
            << "\n# series: Xmvp(nu) ~ Theta(N^2), Xmvp(1) ~ Theta(N nu), "
               "Fmmp ~ Theta(N log2 N)\n# engine columns: pool = '"
            << pool_engine->name() << "' x"
            << pool_engine->concurrency()
            << "; lvl = per-level Algorithm 2, blk = banded blocked kernel\n"
            << "# span kernels: "
            << transforms::resolved_sv_kernel_name(transforms::SvKernel::automatic)
            << "\n\n";

  TextTable table({"nu", "N", "Xmvp(nu) [s]", "Xmvp(1) [s]", "Fmmp [s]",
                   "pool lvl [s]", "pool blk [s]",
                   "Fmmp speedup vs Xmvp(nu)"});
  TextTable panel_table({"nu", "backend", "blk x1 [s]", "panel m=2 [s]",
                         "panel m=4 [s]", "panel m=8 [s]", "panel m=16 [s]",
                         "panel m=32 [s]", "per-vec m=2", "per-vec m=4",
                         "per-vec m=8", "per-vec m=16", "per-vec m=32"});
  TextTable tune_table({"nu", "default (14,6) [s]", "tuned [s]", "tuned plan",
                        "speedup", "candidates"});
  CsvWriter csv(std::cout);
  csv.header({"nu", "xmvp_full_s", "xmvp_full_extrapolated", "xmvp1_s", "fmmp_s",
              "fmmp_pool_level_s", "fmmp_pool_blocked_s"});

  std::vector<Fig2Row> rows;
  std::vector<double> quad_nus, quad_times;
  for (unsigned nu = 10; nu <= max_nu; ++nu) {
    const std::size_t n = std::size_t{1} << nu;
    const auto model = core::MutationModel::uniform(nu, p);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu);
    std::vector<double> x(n), y(n);
    Xoshiro256 rng(nu);
    for (double& v : x) v = rng.uniform(0.0, 1.0);

    Fig2Row row;
    row.nu = nu;
    row.n = n;

    auto time_op = [&](const core::LinearOperator& op) {
      return bench::time_best_of(3, [&] { op.apply(x, y); });
    };
    auto per_level = [&](const parallel::Engine* engine) {
      return reference::ReferenceFmmp(model, landscape, core::Formulation::right, engine);
    };
    auto blocked = [&](const parallel::Engine* engine) {
      return core::FmmpOperator(model, landscape, core::Formulation::right, engine);
    };
    row.fmmp_s = time_op(reference::ReferenceFmmp(model, landscape));
    row.serial_blocked_s = time_op(blocked(serial_engine.get()));
    row.pool_level_s = time_op(per_level(pool_engine.get()));
    row.pool_blocked_s = time_op(blocked(pool_engine.get()));

    const core::XmvpOperator xmvp1(model, landscape, 1);
    row.xmvp1_s = bench::time_best_of(3, [&] { xmvp1.apply(x, y); });

    if (nu <= max_quadratic_nu) {
      const core::XmvpOperator xmvp_full(model, landscape, nu);
      row.xmvp_full_s = bench::time_best_of(2, [&] { xmvp_full.apply(x, y); });
      quad_nus.push_back(nu);
      quad_times.push_back(row.xmvp_full_s);
    } else {
      row.xmvp_full_s = bench::fit_log2(quad_nus, quad_times).evaluate(nu);
      row.xmvp_full_extrapolated = true;
    }

    // Panel columns: one interleaved m-wide product vs m sequential blocked
    // single-vector products over m distinct vector pairs on the same
    // backend (the block-solver workload without the panel kernel).
    for (const auto& [bname, engine] : backends) {
      const core::FmmpOperator op(model, landscape, core::Formulation::right,
                                  engine);
      const double t_single = bench::time_best_of(3, [&] { op.apply(x, y); });
      std::vector<std::string> cells = {std::to_string(nu), bname,
                                        format_short(t_single)};
      std::vector<std::string> speedups;
      for (std::size_t m : widths) {
        if (2 * n * m * sizeof(double) > kWidePanelByteCap) {
          cells.push_back("-");
          speedups.push_back("-");
          continue;
        }
        PanelPoint pt;
        pt.backend = bname;
        pt.m = m;
        {
          // Sequential baseline over distinct vector pairs; for the wide
          // widths the same 8 pairs are cycled m/8 times so the baseline's
          // working set (and hence its cache behaviour) matches the m = 8
          // case instead of ballooning with m.
          const std::size_t pairs = std::min<std::size_t>(m, 8);
          std::vector<std::vector<double>> xs(pairs), ys(pairs);
          for (std::size_t j = 0; j < pairs; ++j) {
            xs[j].resize(n);
            ys[j].resize(n);
            for (double& v : xs[j]) v = rng.uniform(0.0, 1.0);
          }
          pt.seq_seconds = bench::time_best_of(3, [&] {
            for (std::size_t j = 0; j < m; ++j)
              op.apply(xs[j % pairs], ys[j % pairs]);
          });
        }
        std::vector<double> xp(n * m), yp(n * m);
        for (double& v : xp) v = rng.uniform(0.0, 1.0);
        pt.seconds = bench::time_best_of(3, [&] { op.apply_panel(xp, yp, m); });
        pt.per_vector_speedup = pt.seq_seconds / pt.seconds;
        row.panel.push_back(pt);
        cells.push_back(format_short(pt.seconds));
        speedups.push_back(format_short(pt.per_vector_speedup) + "x");
      }
      cells.insert(cells.end(), speedups.begin(), speedups.end());
      panel_table.add_row(cells);
    }

    // Autotune column: measured-candidate plan vs the fixed default at this nu.
    {
      const auto report =
          transforms::autotune_blocked_plan(nu, *serial_engine, 1, 2);
      row.autotune.tuned = report.best;
      row.autotune.default_seconds = report.timings.front().seconds;
      row.autotune.candidates = report.timings.size();
      row.autotune.tuned_seconds = row.autotune.default_seconds;
      // Match on the full plan identity — tile, chunk, AND the sv kernel
      // fields — or a stage-2 sv candidate sharing the best tile/chunk would
      // shadow the winner's measured time.
      for (const auto& t : report.timings) {
        if (t.plan.tile_log2 == report.best.tile_log2 &&
            t.plan.chunk_log2 == report.best.chunk_log2 &&
            t.plan.sv_kernel == report.best.sv_kernel &&
            t.plan.sv_max_radix == report.best.sv_max_radix) {
          row.autotune.tuned_seconds = t.seconds;
        }
      }
      tune_table.add_row(
          {std::to_string(nu), format_short(row.autotune.default_seconds),
           format_short(row.autotune.tuned_seconds),
           "(" + std::to_string(report.best.tile_log2) + "," +
               std::to_string(report.best.chunk_log2) + "," +
               transforms::resolved_sv_kernel_name(report.best.sv_kernel) +
               "/r" + std::to_string(report.best.sv_max_radix) + ")",
           format_short(row.autotune.default_seconds /
                        row.autotune.tuned_seconds) +
               "x",
           std::to_string(report.timings.size())});
    }

    table.add_row({std::to_string(nu), std::to_string(n),
                   format_short(row.xmvp_full_s) +
                       (row.xmvp_full_extrapolated ? "*" : ""),
                   format_short(row.xmvp1_s), format_short(row.fmmp_s),
                   format_short(row.pool_level_s), format_short(row.pool_blocked_s),
                   format_short(row.xmvp_full_s / row.fmmp_s)});
    csv.row().cell(std::size_t{nu}).cell(row.xmvp_full_s)
        .cell(std::string(row.xmvp_full_extrapolated ? "1" : "0"))
        .cell(row.xmvp1_s).cell(row.fmmp_s).cell(row.pool_level_s)
        .cell(row.pool_blocked_s);
    csv.end_row();
    rows.push_back(std::move(row));
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n(* = extrapolated from the measured Theta(N^2) slope, as in "
               "the paper for nu >= 22)\n"
            << "expected shape: Fmmp fastest at every nu, faster than Xmvp(1) "
               "despite being exact, and the blocked (blk) engine columns "
               "strictly under the per-level (lvl) ones at nu >= 20.\n\n";
  panel_table.print(std::cout);
  std::cout << "\nexpected shape: per-vector speedup grows with nu as the "
               "product turns memory-bound; >= 1.3x at nu = 22, m = 8 on at "
               "least one backend (the sequential baseline runs the sv "
               "microkernels too, so the gap is narrower than the pre-sv "
               "~2x), and the full-width wide widths (m = 16, 32) hold "
               "per-vector cost within ~1.1-1.7x of the m = 8 sweet spot, "
               "ahead of the sequential fallback in the memory-bound regime "
               "(m = 8 remains the preferred batch width).\n\n";
  tune_table.print(std::cout);
  std::cout << "\nexpected shape: tuned <= default at every nu (the default "
               "plan is always among the measured candidates and wins ties).\n";

  write_json(json_path, p, max_nu, rows);
  return 0;
}
