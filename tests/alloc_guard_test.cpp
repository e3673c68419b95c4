// Zero-allocation guarantee for the solver hot path.
//
// With a PlannedOperator supplying the scratch workspace, the power
// iteration's steady-state loop — banded matvec, Rayleigh quotient,
// residual, shift, normalisation — must perform zero heap allocations per
// iteration on the serial backend.  The counting operator-new hooks in
// alloc_hooks.cpp (linked into this binary only) make that measurable: the
// test samples support::allocation_count() from the on_residual hook into a
// preallocated array (the hook itself must not allocate either) and asserts
// the counter is flat across the whole run after warm-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/planned_operator.hpp"
#include "core/spectral.hpp"
#include "core/workspace.hpp"
#include "distributed/reduction.hpp"
#include "obs/trace.hpp"
#include "parallel/engine.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "solvers/arnoldi.hpp"
#include "solvers/power_iteration.hpp"
#include "support/alloc_counter.hpp"
#include "alloc_hooks.hpp"

namespace qs {
namespace {

TEST(AllocGuardTest, CountingHooksAreLinkedIntoThisBinary) {
  const std::uint64_t before = support::allocation_count();
  const std::vector<double> v(1024, 1.0);
  ASSERT_EQ(v.size(), 1024u);
  EXPECT_GT(support::allocation_count(), before)
      << "operator-new hooks are not linked; the zero-allocation test below "
         "would pass vacuously";
}

TEST(AllocGuardTest, PowerIterationHotPathPerformsZeroHeapAllocations) {
  const auto model = core::MutationModel::uniform(10, 0.01);
  const auto fitness = core::Landscape::random(10, 5.0, 1.0, 77);
  const core::PlannedOperator op(model, fitness);

  constexpr unsigned kIterations = 60;
  solvers::PowerOptions options;
  options.tolerance = 0.0;  // never converge: run all iterations
  options.stall_window = 0;
  options.max_iterations = kIterations;
  options.workspace = &op.workspace();

  // Fixed-size sample buffer: the hook itself must not allocate, or it
  // would trip the very counter it samples.
  std::array<std::uint64_t, kIterations + 1> samples{};
  options.on_residual = [&samples](unsigned it, double) {
    if (it < samples.size()) samples[it] = support::allocation_count();
  };

  const solvers::PowerResult result = solvers::power_iteration(op, {}, options);
  ASSERT_EQ(result.iterations, kIterations);
  ASSERT_EQ(result.failure, solvers::SolverFailure::none);

  // Iteration 1's sample is taken after the loop's one-time setup (start
  // vector, workspace growth); from then on the counter must not move.
  for (unsigned it = 2; it <= kIterations; ++it) {
    EXPECT_EQ(samples[it], samples[1]) << "allocation during iteration " << it;
  }
}

/// Four lanes run one after another on the calling thread: the power
/// loop's four-block fan-out without a thread pool's own allocations.
class InlineLanes final : public parallel::Engine {
 public:
  std::string_view name() const override { return "inline-lanes"; }
  unsigned concurrency() const override { return 4; }
  void dispatch(std::size_t n, const parallel::RangeKernel& kernel) const override {
    const std::size_t chunk = (n + 3) / 4;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      kernel(begin, std::min(begin + chunk, n));
    }
  }
};

TEST(AllocGuardTest, FusedShiftedLoopWithSparseChecksPerformsZeroHeapAllocations) {
  // The loop runs the fused tree-ordered passes: a shifted solve with
  // residual checks every third iteration runs both check passes and,
  // between checks, the shift pass of an unnormalised stretch, at lengths
  // (2^10, 2^14) that take the blockwise SIMD path, with no engine, with the serial and tree engines,
  // and fanned out over four blocks (per-block partial slots, span
  // allreduces), inline and on a real four-lane pool, whose dispatch
  // must not allocate either.  None of it may touch the heap.
  const InlineLanes four_lanes;
  const parallel::ThreadPoolBackend pool(4);
  const struct {
    unsigned nu;
    const parallel::Engine* engine;
  } cases[] = {{10, nullptr},
               {10, &parallel::serial_engine()},
               {10, &distributed::tree_engine()},
               {14, &four_lanes},
               {14, &pool}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.engine != nullptr ? c.engine->name() : "no engine");
    const auto model = core::MutationModel::uniform(c.nu, 0.01);
    const auto fitness = core::Landscape::random(c.nu, 5.0, 1.0, 78);
    const core::PlannedOperator op(model, fitness);

    constexpr unsigned kIterations = 90;
    solvers::PowerOptions options;
    options.tolerance = 0.0;  // never converge: run all iterations
    options.stall_window = 0;
    options.max_iterations = kIterations;
    options.residual_check_every = 3;
    options.shift = 0.5;
    options.workspace = &op.workspace();
    options.engine = c.engine;

    std::array<std::uint64_t, kIterations + 1> samples{};
    std::array<bool, kIterations + 1> sampled{};
    options.on_residual = [&samples, &sampled](unsigned it, double) {
      if (it < samples.size()) {
        samples[it] = support::allocation_count();
        sampled[it] = true;
      }
    };

    const solvers::PowerResult result = solvers::power_iteration(op, {}, options);
    ASSERT_EQ(result.iterations, kIterations);
    ASSERT_EQ(result.failure, solvers::SolverFailure::none);

    unsigned first = 0;
    unsigned checks = 0;
    for (unsigned it = 1; it <= kIterations; ++it) {
      if (!sampled[it]) continue;
      ++checks;
      if (first == 0) {
        first = it;
        continue;
      }
      EXPECT_EQ(samples[it], samples[first]) << "allocation before iteration " << it;
    }
    EXPECT_GE(checks, kIterations / 3);
  }
}

TEST(AllocGuardTest, ScheduledShiftIterationsPerformZeroHeapAllocations) {
  // The Chebyshev shift schedule engages, cycles, widens its interval and,
  // at the numerical floor, falls back and re-engages: every transition
  // changes scalars only, so no iteration may touch the heap, with no
  // engine and fanned out over four blocks.
  const InlineLanes four_lanes;
  for (const parallel::Engine* engine :
       {static_cast<const parallel::Engine*>(nullptr),
        static_cast<const parallel::Engine*>(&four_lanes)}) {
    SCOPED_TRACE(engine != nullptr ? engine->name() : "no engine");
    const auto model = core::MutationModel::uniform(12, 0.05);
    const auto fitness = core::Landscape::single_peak(12, 2.0, 1.0);
    const core::PlannedOperator op(model, fitness);

    constexpr unsigned kIterations = 200;
    solvers::PowerOptions options;
    options.tolerance = 0.0;  // never converge: run all iterations
    options.stall_window = 0;
    options.max_iterations = kIterations;
    options.shift = core::conservative_shift(model, fitness);
    options.workspace = &op.workspace();
    options.engine = engine;

    std::array<std::uint64_t, kIterations + 1> samples{};
    options.on_residual = [&samples](unsigned it, double) {
      if (it < samples.size()) samples[it] = support::allocation_count();
    };

    const solvers::PowerResult result =
        solvers::power_iteration(op, solvers::landscape_start(fitness), options);
    ASSERT_EQ(result.iterations, kIterations);
    ASSERT_EQ(result.failure, solvers::SolverFailure::none);
    ASSERT_GT(result.shift_schedule.engaged_at, 0u);
    ASSERT_GT(result.shift_schedule.fallbacks, 0u);
    for (unsigned it = 2; it <= kIterations; ++it) {
      EXPECT_EQ(samples[it], samples[1]) << "allocation during iteration " << it;
    }
  }
}

TEST(AllocGuardTest, FamilyLoopPerformsZeroHeapAllocationsPerProduct) {
  // A landscape-family solve allocates its panels, check-pass partials and
  // row-tree scratch once per solve; its products — in place between checks,
  // out of place with both check passes every third — must not touch the
  // heap, at the one-column service width and the m = 8 study width, inline
  // and fanned out over four blocks.  should_stop is polled once per
  // product (before it between checks, after it at a check), so it
  // samples the counter between products.
  const InlineLanes four_lanes;
  const struct {
    unsigned nu;
    std::size_t m;
    const parallel::Engine* engine;
  } cases[] = {{10, 1, nullptr}, {10, 8, nullptr}, {14, 1, &four_lanes},
               {14, 8, &four_lanes}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.m);
    SCOPED_TRACE(c.engine != nullptr ? c.engine->name() : "no engine");
    const auto model = core::MutationModel::uniform(c.nu, 0.01);
    std::vector<core::Landscape> family;
    for (std::size_t j = 0; j < c.m; ++j) {
      family.push_back(core::Landscape::random(c.nu, 5.0, 1.0, 40 + j));
    }

    constexpr unsigned kProducts = 40;
    analysis::FamilyOptions options;
    options.tolerance = 0.0;  // never converge: run all products
    options.max_iterations = kProducts;
    options.residual_check_every = 3;
    options.engine = c.engine;
    std::array<std::uint64_t, kProducts + 1> samples{};
    unsigned polls = 0;
    options.should_stop = [&samples, &polls] {
      if (polls < samples.size()) samples[polls] = support::allocation_count();
      ++polls;
      return false;
    };

    const analysis::FamilyResult result =
        analysis::sweep_landscape_family(model, family, options);
    ASSERT_EQ(result.panel_products, kProducts);
    ASSERT_EQ(polls, kProducts);
    for (unsigned k = 1; k < kProducts; ++k) {
      EXPECT_EQ(samples[k], samples[0]) << "allocation before product " << k + 1;
    }
  }
}

TEST(AllocGuardTest, HugePageWorkspacesMapTheirLargeBuffers) {
  // A plain workspace takes every buffer from operator new; one built with
  // the huge-page advice maps its buffers of 2 MiB and more itself.
  const std::size_t n = core::Workspace::kHugePageBytes / sizeof(double);
  core::Workspace plain;
  test::reset_largest_allocation();
  test::reset_huge_page_advices();
  plain.take(core::Workspace::Slot::product, n);
  EXPECT_GE(test::largest_allocation(), n * sizeof(double));
  EXPECT_EQ(test::huge_page_advices(), 0u);
#if defined(__linux__)
  core::Workspace huge(core::Workspace::huge_page_advice);
  test::reset_largest_allocation();
  huge.take(core::Workspace::Slot::product, n);
  EXPECT_LT(test::largest_allocation(), n * sizeof(double));
  EXPECT_EQ(test::huge_page_advices(), 1u);
#endif
}

TEST(AllocGuardTest, FamilySolveMapsItsPanels) {
  // A family whose n x m panels reach 2 MiB maps exactly two of them, the
  // iterate and the product: the landscapes scale their columns in place,
  // so there is no scaling panel.  The largest buffer it asks operator new
  // for is a result vector of n doubles, never a panel.
  const unsigned nu = 15;
  const std::size_t n = std::size_t{1} << nu;
  const std::size_t m = 8;
  ASSERT_GE(n * m * sizeof(double), core::Workspace::kHugePageBytes);
  const auto model = core::MutationModel::uniform(nu, 0.01);
  std::vector<core::Landscape> family;
  for (std::size_t j = 0; j < m; ++j) {
    family.push_back(core::Landscape::random(nu, 5.0, 1.0, 60 + j));
  }
  analysis::FamilyOptions options;
  options.tolerance = 1e-8;
  test::reset_huge_page_advices();
  test::reset_largest_allocation();
  const analysis::FamilyResult result =
      analysis::sweep_landscape_family(model, family, options);
  ASSERT_TRUE(result.converged);
  EXPECT_GE(test::largest_allocation(), n * sizeof(double));
#if defined(__linux__)
  EXPECT_EQ(test::huge_page_advices(), 2u);
  EXPECT_LT(test::largest_allocation(), n * m * sizeof(double));
#endif
}

// The Arnoldi cycle body DOES allocate (the small dense Ritz eigensolve per
// cycle), but the per-cycle count must be constant in steady state — and,
// critically for the observability layer, identical whether span tracing is
// runtime-enabled or not.  Sampling happens in the on_residual hook (called
// once per cycle), writing into a preallocated buffer.
constexpr unsigned kKrylovCycles = 8;

std::vector<std::uint64_t> arnoldi_cycle_samples(bool tracing_on) {
  obs::set_enabled(tracing_on && obs::compiled_in());
  const auto model = core::MutationModel::uniform(8, 0.01);
  const auto fitness = core::Landscape::random(8, 5.0, 1.0, 13);
  solvers::ArnoldiOptions options;
  options.tolerance = 0.0;
  options.max_restarts = kKrylovCycles - 1;
  options.basis_size = 6;
  std::vector<std::uint64_t> samples(kKrylovCycles + 2, 0);
  options.on_residual = [&samples](unsigned it, double) {
    if (it < samples.size()) samples[it] = support::allocation_count();
  };
  const auto result = solvers::arnoldi_dominant_w(model, fitness, {}, options);
  obs::set_enabled(false);
  EXPECT_EQ(result.failure, solvers::SolverFailure::none);
  EXPECT_EQ(result.restarts, kKrylovCycles - 1);
  return samples;
}

/// Steady-state per-cycle allocation delta: cycles 3+ must all cost the
/// same number of allocations (earlier cycles grow the basis pool and, with
/// tracing on, the thread's span ring — one-time effects by design).
std::uint64_t steady_delta(const std::vector<std::uint64_t>& samples) {
  const std::uint64_t delta = samples[4] - samples[3];
  for (unsigned it = 4; it < kKrylovCycles; ++it) {
    EXPECT_EQ(samples[it + 1] - samples[it], delta)
        << "allocation count changed at cycle " << it;
  }
  return delta;
}

TEST(AllocGuardTest, ArnoldiCycleBodyIsAllocationFlatWithTracingOnAndOff) {
  const auto off = arnoldi_cycle_samples(false);
  const auto on = arnoldi_cycle_samples(true);
  const std::uint64_t delta_off = steady_delta(off);
  const std::uint64_t delta_on = steady_delta(on);
  EXPECT_EQ(delta_on, delta_off)
      << "span instrumentation changed the Arnoldi cycle's allocation count";
}

TEST(AllocGuardTest, RepeatedSolvesThroughOneWorkspaceStayAllocationFlat) {
  const auto model = core::MutationModel::uniform(9, 0.02);
  const auto fitness = core::Landscape::random(9, 4.0, 1.0, 5);
  const core::PlannedOperator op(model, fitness);

  solvers::PowerOptions options;
  options.tolerance = 0.0;
  options.stall_window = 0;
  options.max_iterations = 10;
  options.workspace = &op.workspace();

  // First solve grows the workspace to the working size.
  solvers::power_iteration(op, {}, options);
  const std::size_t warm_bytes = op.workspace().bytes();

  // Further solves reuse the grown buffers verbatim.
  solvers::power_iteration(op, {}, options);
  EXPECT_EQ(op.workspace().bytes(), warm_bytes);
}

}  // namespace
}  // namespace qs
