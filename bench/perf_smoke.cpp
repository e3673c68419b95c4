// Tiny performance smoke test, registered with ctest under the `perf-smoke`
// label (ctest -L perf-smoke).  It is deliberately coarse: the only failures
// it hunts are catastrophic regressions (an accidental O(N^2) path, a
// de-vectorised microkernel, a panel layout that stopped amortising memory
// traffic), so the thresholds sit above healthy values.  Checks 1, 5, 9,
// 10 and 11 time their two sides alternately (best_of_alternating_seconds),
// so host drift lands on both sides instead of in the ratio.  Over 40
// standalone runs of a Release build on a shared 4-CPU AVX-512 host, the
// worst value of each timed check and its bound's margin over it (bound /
// worst, or worst / bound for the >= checks) were
//   check 1   1.33  of <= 2      1.50x     check 7   3.07  of >= 1.15   2.7x
//   check 2   0.49  of <= 3      6.2x      check 8   5.79  of >= 1.3    4.5x
//   check 5   1.10  of <= 1.3    1.18x     check 9   1.18  of <= 1.5    1.27x
//   check 6   0.17% of <= 1%     5.8x      check 10  1.17  of <= 1.3    1.11x
//                                          check 11  1.66  of <= 2      1.20x
// (medians 1.00, 0.36, 1.03, 0.13%, 3.65, 7.14, 1.09, 1.08, 1.56), with no
// failure; checks 8 and 11 were measured after the tree reductions shared
// their upper levels across blocks, the others before.  Two earlier sets
// of 40, before pass 2 swept its sub-blocks last to first, read check 11
// at 1.36-1.54 and 1.43-1.71; the bound is set over all three.  Timed back
// to back, checks 1, 5 and 9 read up to 1.50, 1.26 and 1.22 over 40 runs in
// the same hour, and up to 1.93, 1.21 and 1.51 (one failure) on a noisier
// day.  A loaded host can still fail a check; rerun it alone before blaming
// a change.
//
// Checks, at nu = 16 on the serial engine:
//   1. panel m = 8 per-vector time <= 2x one single-vector blocked matvec
//      (healthy builds sit at or below ~1x);
//   2. the blocked banded kernel <= 3x the classic serial Fmmp, the paper's
//      Algorithm 1 run by reference::ReferenceFmmp (they compute the same
//      bits; banded is normally the faster one);
//   3. one autotune report at nu = 12 measures the default plan first and
//      returns candidates (plumbing check, not a timing check);
//   4. in a QS_ENABLE_TRACING build, the runtime-disabled span sites cost
//      under 2% of a blocked matvec (per-site probe x measured site count),
//      and a per-phase span breakdown of one matvec + one panel product is
//      printed.  In a default build the check is structurally free (the
//      macros compile to nothing) and only a note is printed;
//   5. a panel-batched replica-ensemble generation's mutation phase (R = 8)
//      is no slower than 1.3x the sequential per-replica products — healthy
//      builds read 0.75-1.10 (median 1.03) over 40 standalone runs: since
//      the single vector runs as an 8-row panel, batching eight replicas
//      gains nothing, so this only catches a batched path that became
//      slower than the products it replaces;
//   6. a histogram record (the always-compiled telemetry the service layer
//      runs on) costs under 1% of a blocked matvec even at ~8 records per
//      solve iteration — pins the hot-path budget of the latency plane;
//   7. the single-vector SIMD microkernels beat the forced scalar table on
//      the banded apply by >= 1.15x (measured: ~3.9x on an AVX-512 host at
//      nu = 16) — catches the sv dispatch silently falling back to the
//      scalar table.  Skipped gracefully on hosts where no SIMD table is
//      available (best_sv_kernels() == nullptr): there scalar IS the best
//      kernel.
//   8. the power loop's two tree-ordered check passes (1: x.x, x.y and
//      ||y - mu x||_1; 2: residual, shift and rescale) beat the six-pass
//      sequence they replaced — dot, dot, residual, shift, norm1, rescale,
//      four of them one dependent add chain each — by >= 1.3x on the same
//      vectors.  Catches the loop silently falling back to serial add
//      chains.  Skipped like check 7.
//   9. the single-vector fused apply on N doubles takes <= 1.5x the m = 8
//      panel product over the same N doubles (N/8 rows, nu - 3 levels, the
//      same pre-scale, read as 8 columns): a SIMD-tier single vector IS
//      that panel plus an in-register stage for levels 0-2, and both run
//      the one span-kernel table (measured ~0.95x on an AVX-512 host; ~2x
//      before the reshape).
//      Catches the reshape silently falling back to 1-wide spans.  Skipped
//      like check 7.
//  10. a landscape-family solve (m = 8 random landscapes) takes <= 1.3x its
//      own panel products run alone, back to back: between residual checks
//      the power loop runs the family's fused product in place and nothing
//      else, so only the two passes per check and the set-up remain on top
//      (~1.75x when every product paid a column-sum and a rescale pass).
//      Catches the loop growing per-product passes again.  Skipped like
//      check 7.
//  11. a default facade solve takes <= 2x its own products run alone,
//      back to back, and formed pass 1 inside them (CheckPath::fused): the
//      last band of every check product sums the chunks it finishes, so
//      only pass 2 and the set-up remain on top.  The path is checked
//      directly because the ratio cannot tell: at nu = 16 both vectors sit
//      in L2, both forms of pass 1 are bound by their arithmetic, and the
//      standalone pass reads the same ratio to within a few percent.
//      Catches the loop growing per-iteration passes, and the products
//      silently dropping pass 1.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <span>
#include <vector>

#include "analysis/sweep.hpp"
#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reference/fmmp.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "stochastic/ensemble.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/panel_butterfly.hpp"
#include "transforms/plan_autotune.hpp"
#include "transforms/sv_microkernel.hpp"

int main() {
  using namespace qs;
  const unsigned nu = bench::env_unsigned("QS_PERF_SMOKE_NU", 16);
  const std::size_t n = std::size_t{1} << nu;
  const std::size_t m = 8;
  const unsigned reps = 7;
  int failures = 0;

  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);
  const auto& engine = parallel::serial_engine();
  const core::FmmpOperator op(model, landscape, core::Formulation::right, &engine);
  const reference::ReferenceFmmp classic(model, landscape);

  std::vector<double> x(n), y(n), xp(n * m), yp(n * m);
  Xoshiro256 rng(42);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  for (double& v : xp) v = rng.uniform(0.0, 1.0);

  const auto [t_single, t_panel] = best_of_alternating_seconds(
      2 * reps, [&] { op.apply(x, y); }, [&] { op.apply_panel(xp, yp, m); });
  const double t_classic = bench::time_best_of(reps, [&] { classic.apply(x, y); });
  const double per_vector = t_panel / static_cast<double>(m);

  std::cout << "perf-smoke @ nu=" << nu << ", kernels="
            << transforms::resolved_sv_kernel_name(transforms::SvKernel::automatic)
            << "\n"
            << "  classic Fmmp        : " << t_classic << " s\n"
            << "  blocked matvec (x1) : " << t_single << " s\n"
            << "  panel matvec (m=8)  : " << t_panel << " s ("
            << per_vector << " s/vector, "
            << t_single / per_vector << "x per-vector speedup)\n";

  if (per_vector > 2.0 * t_single) {
    std::cerr << "FAIL: panel m=8 per-vector time " << per_vector
              << " s exceeds 2x the single blocked matvec (" << t_single
              << " s) — panel path regressed\n";
    ++failures;
  }
  if (t_single > 3.0 * t_classic) {
    std::cerr << "FAIL: blocked banded matvec " << t_single
              << " s exceeds 3x the classic serial Fmmp (" << t_classic
              << " s) — banded kernel regressed\n";
    ++failures;
  }

  const auto report = transforms::autotune_blocked_plan(12, engine, 1, 1);
  const transforms::BlockedPlan def{};
  if (report.timings.empty() ||
      report.timings.front().plan.tile_log2 != def.tile_log2 ||
      report.timings.front().plan.chunk_log2 != def.chunk_log2) {
    std::cerr << "FAIL: autotune report does not measure the default plan "
                 "first\n";
    ++failures;
  } else {
    std::cout << "  autotune @ nu=12    : " << report.timings.size()
              << " candidates, best (" << report.best.tile_log2 << ","
              << report.best.chunk_log2 << ")\n";
  }

  if (qs::obs::compiled_in()) {
    // Structured breakdown: one instrumented matvec + one panel product,
    // aggregated per span name from the obs rings.
    qs::obs::set_enabled(true);
    qs::obs::reset();
    op.apply(x, y);
    op.apply_panel(xp, yp, m);
    const std::size_t sites_per_matvec = qs::obs::snapshot_spans().size();
    const auto snap = qs::obs::metrics().snapshot();
    std::cout << "  span breakdown (1 matvec + 1 panel product):\n";
    for (const auto& phase : snap.phases) {
      std::cout << "    " << phase.name << " [" << phase.category
                << "]: count=" << phase.count << ", wall="
                << phase.wall_seconds << " s, cpu=" << phase.cpu_seconds
                << " s\n";
    }

    // Disabled-site overhead: with tracing compiled in but runtime-disabled
    // (the state every timing above ran in) a span site is one relaxed
    // atomic load + branch.  Probe that cost directly with a tight loop of
    // disabled sites, scale by the site count one matvec actually executes
    // (counted from the enabled run above — panel sites included, so the
    // bound is conservative), and require < 2% of the matvec time.
    qs::obs::set_enabled(false);
    qs::obs::reset();
    constexpr std::size_t kProbe = std::size_t{1} << 20;
    const double t_probe = bench::time_best_of(3, [&] {
      for (std::size_t i = 0; i < kProbe; ++i) {
        QS_TRACE_SPAN("perf.disabled_site", kernel);
      }
    });
    const double per_site = t_probe / static_cast<double>(kProbe);
    const double overhead =
        static_cast<double>(sites_per_matvec) * per_site / t_single;
    std::cout << "  disabled span site : " << per_site * 1e9 << " ns ("
              << sites_per_matvec << " sites/matvec => "
              << overhead * 100.0 << "% of one blocked matvec)\n";
    if (overhead > 0.02) {
      std::cerr << "FAIL: runtime-disabled instrumentation costs "
                << overhead * 100.0
                << "% of a blocked matvec (budget: 2%)\n";
      ++failures;
    }
  } else {
    std::cout << "  tracing compiled out: disabled-site overhead is "
                 "identically zero (macros expand to nothing)\n";
  }

  {
    // Check 5: the ensemble's panel-batched mutation phase must actually
    // batch.  Same operator config as the ensemble engine uses internally;
    // compute_expected is idempotent on the populations, so best-of timing
    // is sound.
    stochastic::EnsembleOptions options;
    options.replicas = 8;
    options.population_size = 1000;
    stochastic::ReplicaEnsemble ensemble(model, landscape, options, &engine);
    ensemble.compute_expected(true);  // warm-up
    const auto [t_batched, t_sequential] = best_of_alternating_seconds(
        2 * reps, [&] { ensemble.compute_expected(true); },
        [&] { ensemble.compute_expected(false); });
    std::cout << "  ensemble expected (R=8): batched " << t_batched
              << " s, sequential " << t_sequential << " s ("
              << t_sequential / t_batched << "x)\n";
    if (t_batched > 1.3 * t_sequential) {
      std::cerr << "FAIL: panel-batched ensemble mutation phase " << t_batched
                << " s exceeds 1.3x the sequential per-replica products ("
                << t_sequential << " s) — replica batching regressed\n";
      ++failures;
    }
  }

  {
    // Check 6: histogram records are always compiled (no tracing gate), so
    // their cost is a standing tax on every instrumented path.  Budget: a
    // solve iteration records a handful of durations/ratios (queue wait,
    // cache lookup, exchange segments, residual decay — call it 8); that
    // many records must stay under 1% of one blocked matvec.
    qs::obs::Histogram& probe_hist = qs::obs::histogram("perf.record_probe");
    constexpr std::size_t kProbe = std::size_t{1} << 20;
    volatile double sample = 1.25e-3;  // defeat constant-folding the bin index
    const double t_probe = bench::time_best_of(3, [&] {
      for (std::size_t i = 0; i < kProbe; ++i) probe_hist.record(sample);
    });
    const double per_record = t_probe / static_cast<double>(kProbe);
    constexpr double kRecordsPerMatvec = 8.0;
    const double overhead = kRecordsPerMatvec * per_record / t_single;
    std::cout << "  histogram record    : " << per_record * 1e9 << " ns ("
              << kRecordsPerMatvec << " records/matvec => "
              << overhead * 100.0 << "% of one blocked matvec)\n";
    if (overhead > 0.01) {
      std::cerr << "FAIL: histogram recording costs " << overhead * 100.0
                << "% of a blocked matvec at " << kRecordsPerMatvec
                << " records/matvec (budget: 1%)\n";
      ++failures;
    }
    qs::obs::reset_histograms();
  }

  if (transforms::best_sv_kernels() == nullptr) {
    std::cout << "  sv microkernels     : no SIMD table on this build/CPU — "
                 "scalar is the best kernel, check 7 skipped\n";
  } else {
    // Check 7: the single-vector microkernel path must actually beat the
    // forced scalar table on the bare banded apply.  The threshold is
    // deliberately tolerant (measured ~3.9x on AVX-512; required 1.15x) so
    // only a dispatch regression — not machine noise — can trip it.
    transforms::BlockedPlan scalar_plan;
    scalar_plan.sv_kernel = transforms::SvKernel::scalar;
    transforms::BlockedPlan sv_plan;  // automatic: widest available tier
    const auto factors = model.site_factors();
    const double t_scalar = bench::time_best_of(
        reps, [&] { transforms::apply_blocked_butterfly(x, factors, engine,
                                                        scalar_plan); });
    const double t_sv = bench::time_best_of(
        reps, [&] { transforms::apply_blocked_butterfly(x, factors, engine,
                                                        sv_plan); });
    const double speedup = t_scalar / t_sv;
    std::cout << "  sv microkernels     : scalar " << t_scalar << " s, "
              << transforms::resolved_sv_kernel_name(sv_plan.sv_kernel) << " "
              << t_sv << " s (" << speedup << "x)\n";
    if (speedup < 1.15) {
      std::cerr << "FAIL: single-vector microkernel apply " << t_sv
                << " s is less than 1.15x faster than the scalar table ("
                << t_scalar << " s, " << speedup
                << "x) — sv dispatch regressed\n";
      ++failures;
    }
  }

  if (const transforms::SvKernels* sv = transforms::best_sv_kernels();
      sv == nullptr) {
    std::cout << "  fused reductions    : no SIMD table on this build/CPU — "
                 "check 8 skipped\n";
  } else {
    // Check 8: one power-iteration check's vector work, minus the mat-vec.
    // Both versions leave the next iterate 1-norm normalised, the six
    // passes in x and the two in y (where the loop then swaps roles), so
    // repeated reps stay finite and equally expensive.
    std::vector<double> xv(n), yv(n);
    for (double& v : xv) v = rng.uniform(0.0, 1.0);
    for (double& v : yv) v = rng.uniform(0.0, 1.0);
    const double mu = 0.25;
    volatile double sink = 0.0;
    const double t_six = bench::time_best_of(reps, [&] {
      const double xx = linalg::dot(xv, xv);
      const double xy = linalg::dot(xv, yv);
      const double lambda = xy / xx;
      double res2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = yv[i] - lambda * xv[i];
        res2 += r * r;
      }
      for (std::size_t i = 0; i < n; ++i) yv[i] -= mu * xv[i];
      const double inv = 1.0 / linalg::norm1(yv);
      for (std::size_t i = 0; i < n; ++i) xv[i] = yv[i] * inv;
      sink = sink + res2;
    });
    const double t_fused = bench::time_best_of(reps, [&] {
      const transforms::TreeSums a =
          sv->tree_check_sums(xv.data(), yv.data(), n, mu);
      const double res2 = sv->tree_residual_update(
          xv.data(), yv.data(), n, a.second / a.first, mu, 1.0 / a.third);
      sink = sink + res2;
    });
    const double speedup = t_six / t_fused;
    std::cout << "  fused reductions    : six passes " << t_six << " s, "
              << sv->name << " two passes " << t_fused << " s (" << speedup
              << "x)\n";
    if (!std::isfinite(sink) || speedup < 1.3) {
      std::cerr << "FAIL: the fused tree-ordered passes " << t_fused
                << " s are less than 1.3x faster than the six-pass sequence ("
                << t_six << " s, " << speedup
                << "x) — the power loop's reductions regressed\n";
      ++failures;
    }
  }

  if (transforms::best_sv_kernels() == nullptr) {
    std::cout << "  sv as 8-row panel   : no SIMD table on this build/CPU — "
                 "check 9 skipped\n";
  } else {
    // Check 9: the single vector vs the m = 8 panel it is reshaped into.
    const auto factors = model.site_factors();
    const std::span<const transforms::Factor2> row_levels(factors.data() + 3,
                                                         nu - 3);
    const auto f = landscape.values();
    // The panel side reads the same pre-scale as its 8 columns: column c
    // holds f[8r + c] over the n/8 rows r.
    std::vector<std::vector<double>> f_columns(8, std::vector<double>(n / 8));
    std::vector<const double*> f_cols(8);
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t r = 0; r < n / 8; ++r) f_columns[c][r] = f[8 * r + c];
      f_cols[c] = f_columns[c].data();
    }
    std::vector<double> xv(n), yv(n);
    for (double& v : xv) v = rng.uniform(0.0, 1.0);
    const auto [t_sv, t_rows] = best_of_alternating_seconds(
        2 * reps,
        [&] { transforms::apply_blocked_butterfly_fused(xv, yv, factors, f, {}, engine); },
        [&] {
          transforms::apply_blocked_panel_butterfly_columns(xv, yv, 8, row_levels,
                                                            f_cols, engine);
        });
    const double ratio = t_sv / t_rows;
    std::cout << "  sv as 8-row panel   : sv fused " << t_sv
              << " s, m=8 panel over nu-3 levels " << t_rows << " s ("
              << ratio << "x)\n";
    if (ratio > 1.5) {
      std::cerr << "FAIL: the single-vector fused apply " << t_sv
                << " s exceeds 1.5x the m = 8 panel product over the same "
                   "doubles ("
                << t_rows << " s, " << ratio
                << "x) — the 8-row reshape regressed\n";
      ++failures;
    }
  }

  if (transforms::best_sv_kernels() == nullptr) {
    std::cout << "  family loop         : no SIMD table on this build/CPU — "
                 "check 10 skipped\n";
  } else {
    // Check 10: the family loop's overhead over its own panel products.
    std::vector<core::Landscape> family;
    for (std::uint64_t j = 0; j < m; ++j) {
      family.push_back(core::Landscape::random(nu, 5.0, 1.0, 200 + j));
    }
    analysis::FamilyOptions fopts;
    fopts.tolerance = 1e-10;
    fopts.engine = &engine;
    std::vector<const double*> pre(m);
    for (std::size_t j = 0; j < m; ++j) pre[j] = family[j].values().data();
    const auto factors = model.site_factors();
    unsigned products = 0;
    const auto [t_family, t_products] = best_of_alternating_seconds(
        2 * reps,
        [&] {
          products =
              analysis::sweep_landscape_family(model, family, fopts).panel_products;
        },
        [&] {
          for (unsigned k = 0; k < products; ++k) {
            transforms::apply_blocked_panel_butterfly_columns(xp, yp, m, factors,
                                                              pre, engine);
          }
        });
    const double ratio = t_family / t_products;
    std::cout << "  family loop         : m=8 solve " << t_family << " s, its "
              << products << " panel products alone " << t_products << " s ("
              << ratio << "x)\n";
    if (ratio > 1.3) {
      std::cerr << "FAIL: the m = 8 family solve " << t_family
                << " s exceeds 1.3x its own " << products << " panel products ("
                << t_products << " s, " << ratio
                << "x) — the family loop grew per-product passes\n";
      ++failures;
    }
  }

  {
    // Check 11: the facade loop's overhead over its own products.
    unsigned iterations = 0;
    solvers::CheckPath path = solvers::CheckPath::passes;
    const auto [t_solve, t_products] = best_of_alternating_seconds(
        2 * reps,
        [&] {
          const auto r = solvers::solve(model, landscape);
          iterations = r.iterations;
          path = r.check_path;
        },
        [&] {
          for (unsigned k = 0; k < iterations; ++k) op.apply(x, y);
        });
    const double ratio = t_solve / t_products;
    std::cout << "  facade loop         : solve " << t_solve << " s, its " << iterations
              << " products alone " << t_products << " s (" << ratio
              << "x), pass 1 " << solvers::to_string(path) << "\n";
    if (path != solvers::CheckPath::fused) {
      std::cerr << "FAIL: the facade solve formed pass 1 in a standalone pass — "
                   "its products no longer carry the check sums\n";
      ++failures;
    }
    if (ratio > 2.0) {
      std::cerr << "FAIL: the facade solve " << t_solve << " s exceeds 2x its own "
                << iterations << " products (" << t_products << " s, " << ratio
                << "x) — the power loop grew per-iteration passes\n";
      ++failures;
    }
  }

  if (failures == 0) {
    std::cout << "perf-smoke PASS\n";
    return EXIT_SUCCESS;
  }
  std::cerr << "perf-smoke FAIL (" << failures << " check(s))\n";
  return EXIT_FAILURE;
}
