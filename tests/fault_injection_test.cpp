// Fault-injection tests: every failure family the resilience layer handles
// (poisoned products, throwing kernels, failing checkpoint I/O) is injected
// deterministically and the corresponding guard is shown to fire.
#include "reference/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "parallel/engine.hpp"
#include "parallel/row_blocks.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "reference/shift_invert.hpp"
#include "test_engines.hpp"
#include "solvers/arnoldi.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"

namespace qs {
namespace {

core::MutationModel test_model(unsigned nu = 8) {
  return core::MutationModel::uniform(nu, 0.01);
}

core::Landscape test_landscape(unsigned nu = 8) {
  return core::Landscape::single_peak(nu, 2.0, 1.0);
}

std::vector<double> nan_start(std::size_t n) {
  std::vector<double> start(n, 1.0);
  start[0] = std::numeric_limits<double>::quiet_NaN();
  return start;
}

// ---------------------------------------------------------------------------
// Structured failure instead of spinning: each iterative solver detects an
// injected NaN and reports SolverFailure::non_finite quickly.

TEST(FaultInjection, PowerIterationDetectsInjectedNan) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 5;
  const testing::FaultInjectingOperator faulty(op, cfg);

  solvers::PowerOptions opts;
  opts.max_iterations = 100000;
  const auto r = solvers::power_iteration(
      faulty, solvers::landscape_start(landscape), opts);
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
  // Fail-fast: the guard fires at the poisoned iteration, not at the cap.
  EXPECT_EQ(r.iterations, 5u);
}

TEST(FaultInjection, PowerIterationDetectsNanUnderParallelEngine) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 3;
  const testing::FaultInjectingOperator faulty(op, cfg);

  solvers::PowerOptions opts;
  opts.engine = &parallel::parallel_engine();
  const auto r = solvers::power_iteration(
      faulty, solvers::landscape_start(landscape), opts);
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
}

TEST(FaultInjection, ThrowInAPowerLoopBlockPassSurfacesAndTheEngineSurvives) {
  // The operator runs without the engine, so every dispatch of the faulty
  // engine is one of the power loop's block passes — two per residual
  // check — and dispatch 5 is pass 1 of iteration 3, fanned out over four
  // lanes in 2^12 blocks.
  const unsigned nu = 14;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 43);
  const core::FmmpOperator op(model, landscape);
  parallel::ThreadPoolBackend pool(4);
  testing::FaultInjectingEngine::Config cfg;
  cfg.throw_at_dispatch = 5;
  const testing::FaultInjectingEngine engine(pool, cfg);
  solvers::PowerOptions opts;
  opts.engine = &engine;
  const auto start = solvers::landscape_start(landscape);
  EXPECT_THROW(solvers::power_iteration(op, start, opts), testing::InjectedFault);
  EXPECT_EQ(engine.dispatch_count(), 5u);

  // Past its fault the same engine runs a whole solve, to the serial bits.
  const auto after = solvers::power_iteration(op, start, opts);
  const auto serial = solvers::power_iteration(op, start);
  ASSERT_TRUE(after.converged);
  EXPECT_EQ(after.eigenvalue, serial.eigenvalue);
  EXPECT_EQ(after.iterations, serial.iterations);
  EXPECT_EQ(after.eigenvector, serial.eigenvector);
}

TEST(FaultInjection, ArnoldiDetectsNonFiniteState) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const auto r = solvers::arnoldi_dominant_w(
      model, landscape, nan_start(landscape.dimension()));
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.restarts, 0u);
}

TEST(FaultInjection, RayleighQuotientIterationDetectsNonFiniteState) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const auto r = solvers::rayleigh_quotient_iteration_w(
      model, landscape, nan_start(landscape.dimension()));
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.outer_iterations, 0u);  // caught before the outer loop starts
}

TEST(FaultInjection, InverseIterationDetectsNonFiniteState) {
  // The shift-invert oracles keep their NaN guards: a poisoned start is
  // refused with a structured failure, not a normalisation precondition.
  const auto model = test_model();
  const auto landscape = test_landscape();
  const auto r = solvers::inverse_iteration_w(
      model, landscape, /*mu=*/2.5, nan_start(landscape.dimension()));
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.outer_iterations, 0u);
  EXPECT_EQ(r.products, 0u);
}

// ---------------------------------------------------------------------------
// Throwing kernels: the exception surfaces on the dispatching thread on
// every backend, including through the Fmmp/butterfly dispatch path.

TEST(FaultInjection, ThrowingOperatorPropagatesToTheCaller) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);
  testing::FaultInjectingOperator::Config cfg;
  cfg.throw_at_apply = 3;
  const testing::FaultInjectingOperator faulty(op, cfg);
  EXPECT_THROW(
      solvers::power_iteration(faulty, solvers::landscape_start(landscape)),
      testing::InjectedFault);
  EXPECT_EQ(faulty.apply_count(), 3u);
}

class FaultyEngineTest : public ::testing::TestWithParam<parallel::TestEngine> {
 protected:
  std::unique_ptr<parallel::Engine> inner_ = parallel::make_test_engine(GetParam());
};

TEST_P(FaultyEngineTest, KernelThrowSurfacesOnTheDispatchingThread) {
  testing::FaultInjectingEngine::Config cfg;
  cfg.throw_at_dispatch = 1;
  const testing::FaultInjectingEngine engine(*inner_, cfg);
  EXPECT_THROW(engine.dispatch(100000, [](std::size_t, std::size_t) {}),
               testing::InjectedFault);
  // The wrapped backend completed its barrier and stays usable.
  std::vector<double> out(1000, 0.0);
  engine.dispatch(1000, [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
  });
  for (double v : out) ASSERT_EQ(v, 1.0);
}

TEST_P(FaultyEngineTest, RowBlockSumThrowSurfacesOnTheDispatchingThread) {
  // A fault in a fanned-out row-block sum reaches the caller and leaves the
  // blocks usable; rows that form one block run inline and never dispatch.
  testing::FaultInjectingEngine::Config cfg;
  cfg.throw_at_dispatch = 1;
  const testing::FaultInjectingEngine engine(*inner_, cfg);
  const std::size_t n = std::size_t{1} << 16;
  parallel::RowBlocks blocks(engine, n, 1, 1);
  const auto count = [](std::size_t begin, std::size_t end, double* partial) {
    partial[0] = static_cast<double>(end - begin);
  };
  double total = 0.0;
  if (blocks.blocks() > 1) {
    EXPECT_THROW(blocks.sums(1, count, &total), testing::InjectedFault);
    EXPECT_EQ(engine.dispatch_count(), 1u);
  } else {
    EXPECT_NO_THROW(blocks.sums(1, count, &total));
    EXPECT_EQ(engine.dispatch_count(), 0u);
  }
  blocks.sums(1, count, &total);
  EXPECT_EQ(total, static_cast<double>(n));
}

TEST_P(FaultyEngineTest, ThrowInsideTheButterflyDispatchPath) {
  // The Fmmp product dispatches its butterfly levels through the engine; a
  // kernel fault deep inside that path must reach the power iteration's
  // caller as the injected exception, on every backend.
  const auto model = test_model();
  const auto landscape = test_landscape();
  testing::FaultInjectingEngine::Config cfg;
  cfg.throw_at_dispatch = 10;
  const testing::FaultInjectingEngine engine(*inner_, cfg);
  const core::FmmpOperator op(model, landscape, core::Formulation::right, &engine);
  solvers::PowerOptions opts;
  opts.engine = &engine;
  EXPECT_THROW(
      solvers::power_iteration(op, solvers::landscape_start(landscape), opts),
      testing::InjectedFault);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FaultyEngineTest,
                         ::testing::ValuesIn(parallel::kTestEngines),
                         [](const auto& info) {
                           return parallel::test_engine_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Checkpoint I/O failure: durability degrades, the solve does not die.

TEST(FaultInjection, FailingCheckpointSinkDoesNotKillTheSolve) {
  const auto model = test_model();
  const auto landscape = test_landscape();
  const core::FmmpOperator op(model, landscape);

  std::size_t delivered = 0;
  solvers::PowerOptions opts;
  opts.checkpoint_every = 10;
  opts.checkpoint_sink = testing::fault_injecting_checkpoint_sink(
      [&delivered](const io::SolverCheckpoint&) { ++delivered; },
      /*fail_at_write=*/2, /*fail_forever=*/true);
  const auto r =
      solvers::power_iteration(op, solvers::landscape_start(landscape), opts);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::none);
  EXPECT_GE(r.checkpoint_failures, 1u);
  EXPECT_EQ(delivered, 1u);  // only the first write got through
}

// ---------------------------------------------------------------------------
// Facade graceful degradation.

/// An owning adapter: SolveOptions::wrap_operator hands over ownership of
/// the inner operator, while FaultInjectingOperator only borrows one.
struct OwningFaultyOperator final : core::LinearOperator {
  std::unique_ptr<core::LinearOperator> held;
  testing::FaultInjectingOperator faulty;
  OwningFaultyOperator(std::unique_ptr<core::LinearOperator> op,
                       testing::FaultInjectingOperator::Config cfg)
      : held(std::move(op)), faulty(*held, cfg) {}
  seq_t dimension() const override { return faulty.dimension(); }
  std::string_view name() const override { return faulty.name(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    faulty.apply(x, y);
  }
};

std::function<std::unique_ptr<core::LinearOperator>(
    std::unique_ptr<core::LinearOperator>)>
inject_faults(testing::FaultInjectingOperator::Config cfg) {
  return [cfg](std::unique_ptr<core::LinearOperator> inner) {
    return std::unique_ptr<core::LinearOperator>(
        new OwningFaultyOperator(std::move(inner), cfg));
  };
}

class FacadeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("qs_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FacadeRecoveryTest, TransientNanRecoversFromTheLastCheckpoint) {
  const auto model = test_model();
  const auto landscape = test_landscape();

  solvers::SolveOptions opts;
  opts.checkpoint_path = dir_ / "solve.ck";
  opts.checkpoint_every = 4;
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 10;  // transient: exactly one poisoned product
  opts.wrap_operator = inject_faults(cfg);

  const auto r = solvers::solve(model, landscape, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::none);
  EXPECT_EQ(r.recovery_attempts, 1u);
}

TEST_F(FacadeRecoveryTest, NanWithoutCheckpointFallsBackToUnshifted) {
  const auto model = test_model();
  const auto landscape = test_landscape();

  solvers::SolveOptions opts;  // no checkpoint configured
  opts.use_shift = true;
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 5;
  opts.wrap_operator = inject_faults(cfg);

  const auto r = solvers::solve(model, landscape, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::none);
  EXPECT_EQ(r.recovery_attempts, 1u);
}

TEST_F(FacadeRecoveryTest, RecoveryDisabledReportsTheStructuredFailure) {
  const auto model = test_model();
  const auto landscape = test_landscape();

  solvers::SolveOptions opts;
  opts.recover = false;
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 5;
  cfg.nan_every_apply_after = true;
  opts.wrap_operator = inject_faults(cfg);

  const auto r = solvers::solve(model, landscape, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_EQ(r.recovery_attempts, 0u);
}

TEST_F(FacadeRecoveryTest, PersistentFaultStillFailsAfterOneRecoveryAttempt) {
  const auto model = test_model();
  const auto landscape = test_landscape();

  solvers::SolveOptions opts;
  opts.checkpoint_path = dir_ / "solve.ck";
  opts.checkpoint_every = 4;
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 10;
  cfg.nan_every_apply_after = true;  // the fault is permanent
  opts.wrap_operator = inject_faults(cfg);

  const auto r = solvers::solve(model, landscape, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_EQ(r.recovery_attempts, 1u);  // exactly one restart, then report
}

}  // namespace
}  // namespace qs
