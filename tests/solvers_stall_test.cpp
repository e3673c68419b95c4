// Tests for the power iteration's stagnation (numerical floor) handling.
#include <gtest/gtest.h>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/spectral.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

// The residual floor of a single-peak solve sits near 1e-16 (the power
// loop's sums are tree-ordered, so each rounds about log2(N) times), so
// the tolerances below stay out of reach.

TEST(Stall, SinglePeakFloorsAboveStrictToleranceButConverges) {
  // The single-peak landscape at nu = 16 floors near 1e-16, above a strict
  // 1e-20 tolerance; the stall detector must stop the run quickly and
  // accept it under the default stall_accept.
  const unsigned nu = 16;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const core::FmmpOperator op(model, landscape);

  PowerOptions opts;
  opts.tolerance = 1e-20;  // below the floor
  opts.shift = core::conservative_shift(model, landscape);
  const auto r = power_iteration(op, landscape_start(landscape), opts);
  EXPECT_TRUE(r.stalled);
  EXPECT_TRUE(r.converged);          // floor ~1e-16 <= stall_accept 1e-9
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_LT(r.iterations, 5000u);    // must not spin to max_iterations
}

TEST(Stall, StrictAcceptMakesStallingAFailure) {
  const unsigned nu = 14;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const core::FmmpOperator op(model, landscape);

  PowerOptions opts;
  opts.tolerance = 1e-20;
  opts.stall_accept = 1e-20;  // floor ~1e-17 > accept -> honest failure
  const auto r = power_iteration(op, landscape_start(landscape), opts);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.converged);
}

TEST(Stall, DisabledWindowSpinsToMaxIterations) {
  const unsigned nu = 12;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const core::FmmpOperator op(model, landscape);

  PowerOptions opts;
  opts.tolerance = 1e-20;  // below the floor
  opts.stall_window = 0;  // disabled
  opts.max_iterations = 3000;
  const auto r = power_iteration(op, landscape_start(landscape), opts);
  EXPECT_FALSE(r.stalled);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3000u);
}

TEST(Stall, CleanConvergenceDoesNotReportStall) {
  // Random landscapes reach 1e-13 comfortably: no stall flag.
  const unsigned nu = 12;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);
  const core::FmmpOperator op(model, landscape);
  const auto r = power_iteration(op, landscape_start(landscape));
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.stalled);
}

TEST(Stall, SlowButConvergingRunsAreNotCutPrematurely) {
  // A landscape with a modest gap: convergence takes many iterations but
  // makes steady >5 %-per-window progress, so the stall detector must let
  // it finish.
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.005);
  // Two nearby peaks -> smallish gap, but still a real one.
  auto values = std::vector<double>(sequence_count(nu), 1.0);
  values[0] = 2.0;
  values[3] = 1.9;
  const auto landscape = core::Landscape::from_values(nu, std::move(values));
  const core::FmmpOperator op(model, landscape);

  PowerOptions opts;
  opts.tolerance = 1e-11;
  const auto r = power_iteration(op, landscape_start(landscape), opts);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.stalled);
  EXPECT_GT(r.iterations, 150u);  // genuinely slow...
}

TEST(Stall, ErrorThresholdSweepConvergesWithoutRecovery) {
  // Near the error threshold the residual first rises from the peak-shaped
  // landscape start, so whole stall windows pass without a new best far
  // above the numerical floor.  None of them is a stall: with the default
  // options every p across the nu = 16 threshold converges on the first
  // attempt, to the exact reduced solution.
  const unsigned nu = 16;
  const auto classes = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);
  const auto landscape = classes.expand();
  SolveOptions opts;
  opts.tolerance = 1e-10;
  for (int step = 0; step <= 20; ++step) {
    const double p = 0.0430 + 1e-4 * step;
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const auto r = solve(core::MutationModel::uniform(nu, p), landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_FALSE(r.stalled);
    EXPECT_EQ(r.recovery_attempts, 0u);
    const auto exact = solve(p, classes);
    ASSERT_EQ(r.class_concentrations.size(), exact.class_concentrations.size());
    for (unsigned k = 0; k <= nu; ++k) {
      EXPECT_NEAR(r.class_concentrations[k], exact.class_concentrations[k], 1e-8)
          << "class " << k;
    }
  }
}

TEST(Stall, Nu18ThresholdSweepConvergesOnTheShiftSchedule) {
  // The same sweep one size up, where the fixed shift needs 409, 645 and
  // 1556 products: the Chebyshev shift schedule converges every point on
  // the first attempt within 300 products, to the exact reduced solution.
  const unsigned nu = 18;
  const auto classes = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);
  const auto landscape = classes.expand();
  SolveOptions opts;
  opts.tolerance = 1e-10;
  for (double p : {0.037, 0.038, 0.039}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const auto r = solve(core::MutationModel::uniform(nu, p), landscape, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_FALSE(r.stalled);
    EXPECT_EQ(r.recovery_attempts, 0u);
    EXPECT_GT(r.shift_schedule.engaged_at, 0u);
    EXPECT_LE(r.iterations, 300u);
    const auto exact = solve(p, classes);
    ASSERT_EQ(r.class_concentrations.size(), exact.class_concentrations.size());
    for (unsigned k = 0; k <= nu; ++k) {
      EXPECT_NEAR(r.class_concentrations[k], exact.class_concentrations[k], 1e-8)
          << "class " << k;
    }
  }
}

}  // namespace
}  // namespace qs::solvers
