// Block subspace iteration and plan autotuning: Ritz pairs must agree with
// the dense spectrum and with the one-at-a-time deflation baseline on the
// paper's landscapes, and the autotuner must return a valid measured plan
// (default included).  Landscape-family solves: analysis_family_test.cpp.
#include "solvers/block_power.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "parallel/engine.hpp"
#include "reference/deflation.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "transforms/plan_autotune.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

TEST(BlockPower, TopPairsMatchDenseSpectrumOnRandomLandscape) {
  const unsigned nu = 6;
  const std::size_t n = std::size_t{1} << nu;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric);

  // Dense reference spectrum of W_sym via columns of the operator.
  linalg::DenseMatrix w(n, n);
  std::vector<double> e(n, 0.0), col(n);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    op.apply(e, col);
    e[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) w(i, j) = col[i];
  }
  const auto dense = linalg::jacobi_eigen(w);

  BlockPowerOptions opts;
  opts.k = 4;
  opts.tolerance = 1e-11;
  const auto r = block_power_iteration(op, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.eigenvalues.size(), 4u);
  for (unsigned j = 0; j < opts.k; ++j) {
    EXPECT_NEAR(r.eigenvalues[j], dense.values[j],
                1e-9 * std::abs(dense.values[j]))
        << "pair " << j;
    // Eigenvector agreement up to sign: |<v_block, v_dense>| ~ 1.
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += r.eigenvectors[j][i] * dense.vectors(i, j);
    }
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-7) << "pair " << j;
  }
}

TEST(BlockPower, AgreesWithDeflationGapOnPaperLandscapes) {
  const unsigned nu = 8;
  const auto landscapes = {core::Landscape::single_peak(nu, 2.0, 1.0),
                           core::Landscape::random(nu, 5.0, 1.0, 3)};
  for (const auto& landscape : landscapes) {
    const auto model = core::MutationModel::uniform(nu, 0.01);
    const SpectralGap gap = spectral_gap(model, landscape);

    BlockPowerOptions opts;
    opts.k = 2;
    opts.tolerance = 1e-11;
    const auto r = top_k_spectrum(model, landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.eigenvalues[0], gap.lambda0, 1e-8 * gap.lambda0);
    EXPECT_NEAR(r.eigenvalues[1], gap.lambda1, 1e-7 * gap.lambda0);
  }
}

TEST(BlockPower, DominantPairMatchesFacadeSolveAcrossBackends) {
  const unsigned nu = 7;
  const auto model = core::MutationModel::uniform(nu, 0.015);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto facade = solve(model, landscape);
  ASSERT_TRUE(facade.converged);

  for (parallel::TestEngine kind : parallel::kTestEngines) {
    const auto engine = parallel::make_test_engine(kind);
    BlockPowerOptions opts;
    opts.k = 2;
    opts.tolerance = 1e-11;
    opts.engine = engine.get();
    const auto r = top_k_spectrum(model, landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.eigenvalues[0], facade.eigenvalue, 1e-9 * facade.eigenvalue);
    // top_k_spectrum reports right-formulation concentrations; compare to
    // the facade's concentration vector entrywise.
    ASSERT_EQ(r.eigenvectors[0].size(), facade.concentrations.size());
    for (std::size_t i = 0; i < facade.concentrations.size(); ++i) {
      EXPECT_NEAR(r.eigenvectors[0][i], facade.concentrations[i], 1e-8)
          << "entry " << i;
    }
  }
}

TEST(BlockPower, ParallelEnginesGiveTheSerialBits) {
  // Every panel sum (Gram matrices, Ritz residuals) is formed on fixed row
  // blocks in tree order, so a parallel engine reproduces the serial solve
  // bit for bit: eigenvalues, residuals, vectors and iteration counts.  A
  // fixed iteration budget keeps the runs short; convergence is not the
  // point.  The m = 8 panel at nu = 12 is wide enough to fan out.
  const struct {
    unsigned nu;
    unsigned k;
  } cases[] = {{10, 2}, {11, 4}, {12, 8}};
  for (const auto& c : cases) {
    const auto model = core::MutationModel::uniform(c.nu, 0.01);
    const auto landscape = core::Landscape::random(c.nu, 5.0, 1.0, 40 + c.nu);
    const auto run = [&](const parallel::Engine* engine) {
      BlockPowerOptions opts;
      opts.k = c.k;
      opts.tolerance = 1e-14;
      opts.max_iterations = 40;
      opts.engine = engine;
      return top_k_spectrum(model, landscape, opts);
    };
    const auto serial = run(nullptr);
    ASSERT_EQ(serial.eigenvalues.size(), c.k);
    for (parallel::TestEngine kind :
         {parallel::TestEngine::pool3, parallel::TestEngine::pool}) {
      const auto engine = parallel::make_test_engine(kind);
      SCOPED_TRACE(::testing::Message() << "nu=" << c.nu << " k=" << c.k
                                        << " engine=" << engine->name());
      const auto r = run(engine.get());
      EXPECT_EQ(r.iterations, serial.iterations);
      EXPECT_EQ(r.eigenvalue, serial.eigenvalue);
      EXPECT_EQ(r.residual, serial.residual);
      EXPECT_EQ(r.eigenvalues, serial.eigenvalues);
      EXPECT_EQ(r.residuals, serial.residuals);
      ASSERT_EQ(r.eigenvectors.size(), serial.eigenvectors.size());
      for (std::size_t j = 0; j < r.eigenvectors.size(); ++j) {
        EXPECT_EQ(r.eigenvectors[j], serial.eigenvectors[j]) << "pair " << j;
      }
    }
  }
}

TEST(BlockPower, GuardColumnsAcceleratedWidthStillCorrect) {
  // Explicit wide block (guard columns beyond k) converges to the same pairs.
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::linear(nu, 2.0, 1.0);
  BlockPowerOptions narrow, wide;
  narrow.k = wide.k = 2;
  narrow.tolerance = wide.tolerance = 1e-11;
  wide.block = 8;
  const auto a = top_k_spectrum(model, landscape, narrow);
  const auto b = top_k_spectrum(model, landscape, wide);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.eigenvalues[0], b.eigenvalues[0], 1e-9 * a.eigenvalues[0]);
  EXPECT_NEAR(a.eigenvalues[1], b.eigenvalues[1], 1e-8 * a.eigenvalues[0]);
}

TEST(PlanAutotune, HeuristicPlanIsAlwaysValid) {
  const auto caches = transforms::detect_cache_hierarchy();
  for (std::size_t m : {1ul, 4ul, 8ul}) {
    const auto plan = transforms::cache_heuristic_plan(caches, m);
    EXPECT_GT(plan.tile_log2, plan.chunk_log2);
    EXPECT_GE(plan.tile_log2, 4u);
    EXPECT_LE(plan.tile_log2, 20u);
  }
  // Undetected hierarchy falls back to the defaults.
  const auto fallback = transforms::cache_heuristic_plan(transforms::CacheHierarchy{});
  EXPECT_EQ(fallback.tile_log2, transforms::BlockedPlan{}.tile_log2);
  EXPECT_EQ(fallback.chunk_log2, transforms::BlockedPlan{}.chunk_log2);
}

TEST(PlanAutotune, ReportMeasuresDefaultFirstAndPicksNoSlowerPlan) {
  const auto report = transforms::autotune_blocked_plan(
      12, parallel::serial_engine(), 1, 1);
  ASSERT_GE(report.timings.size(), 2u);
  const transforms::BlockedPlan def{};
  EXPECT_EQ(report.timings.front().plan.tile_log2, def.tile_log2);
  EXPECT_EQ(report.timings.front().plan.chunk_log2, def.chunk_log2);
  // The chosen plan's measured time is <= the default's measured time.
  // Match on the full plan identity: the stage-2 microkernel sweep re-lists
  // the winning tile/chunk with different sv_kernel/sv_max_radix settings.
  double best_seconds = -1.0;
  for (const auto& t : report.timings) {
    if (t.plan.tile_log2 == report.best.tile_log2 &&
        t.plan.chunk_log2 == report.best.chunk_log2 &&
        t.plan.sv_kernel == report.best.sv_kernel &&
        t.plan.sv_max_radix == report.best.sv_max_radix) {
      best_seconds = t.seconds;
    }
    EXPECT_GT(t.seconds, 0.0);
  }
  ASSERT_GE(best_seconds, 0.0) << "best plan not among the measured candidates";
  EXPECT_LE(best_seconds, report.timings.front().seconds);
}

TEST(PlanAutotune, TunedPlanSolvesToTheSameEigenpair) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto report = transforms::autotune_blocked_plan(
      nu, parallel::serial_engine(), 1, 1);
  SolveOptions defaults, tuned;
  tuned.plan = report.best;
  const auto a = solve(model, landscape, defaults);
  const auto b = solve(model, landscape, tuned);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.eigenvalue, b.eigenvalue, 1e-12 * a.eigenvalue);
}

}  // namespace
}  // namespace qs::solvers
