// Unit tests for the shared iteration scaffolding (solvers/iteration_driver).
//
// The solver-level tests exercise the driver end to end; these pin down the
// contract of each primitive in isolation: the observe verdicts (tolerance,
// stall window, stall_accept), the NaN/Inf guards, the checkpoint cadence
// and failure accounting, verbatim restore, and restore_trace's kind and
// health checks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/binary_io.hpp"
#include "solvers/iteration_driver.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

using Verdict = IterationDriver::Verdict;

/// The problem size every driver below is built for: its stall floor bound
/// is stall_floor_bound(kDimension), about 4e-12.
constexpr std::size_t kDimension = std::size_t{1} << 16;

/// A residual at the numerical floor, far below that bound.
constexpr double kFloor = 1e-16;

TEST(IterationDriverTest, ObserveConvergesAtTheTolerance) {
  IterationOptions options;
  options.tolerance = 1e-8;
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  EXPECT_EQ(driver.observe(1, 1e-7, out), Verdict::proceed);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(driver.observe(2, 1e-8, out), Verdict::converged);
  EXPECT_TRUE(out.converged);
}

TEST(IterationDriverTest, ObserveFiresTheResidualHook) {
  IterationOptions options;
  options.tolerance = 0.0;
  std::vector<std::pair<unsigned, double>> seen;
  options.on_residual = [&](unsigned it, double res) { seen.emplace_back(it, res); };
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  driver.observe(3, 0.5, out);
  driver.observe(4, 0.25, out);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<unsigned, double>{3, 0.5}));
  EXPECT_EQ(seen[1], (std::pair<unsigned, double>{4, 0.25}));
}

TEST(IterationDriverTest, StallWindowFiresAndStallAcceptDecidesConvergence) {
  IterationOptions options;
  options.tolerance = 0.0;  // never converge on tolerance
  options.stall_window = 3;
  options.stall_accept = 1e-2;
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  // The first full window only establishes the reference best (it always
  // counts as progress against the initial infinity); a second window with a
  // flat residual at the floor then fires the stall.
  for (unsigned it = 1; it <= 5; ++it) {
    EXPECT_EQ(driver.observe(it, kFloor, out), Verdict::proceed) << it;
  }
  EXPECT_EQ(driver.observe(6, kFloor, out), Verdict::stalled);
  EXPECT_TRUE(out.stalled);
  // The floor sits below stall_accept, so the stalled run still counts as
  // converged.
  EXPECT_TRUE(out.converged);
}

TEST(IterationDriverTest, StallAboveStallAcceptIsNotConverged) {
  IterationOptions options;
  options.tolerance = 0.0;
  options.stall_window = 2;
  options.stall_accept = 1e-20;  // below the floor
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  EXPECT_EQ(driver.observe(1, kFloor, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(2, kFloor, out), Verdict::proceed);  // reference window
  EXPECT_EQ(driver.observe(3, kFloor, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(4, kFloor, out), Verdict::stalled);
  EXPECT_TRUE(out.stalled);
  EXPECT_FALSE(out.converged);
}

TEST(IterationDriverTest, FlatWindowsAboveTheFloorBoundAreNotAStall) {
  // Near the error threshold the residual first rises from the landscape
  // start, so whole windows pass without a new best far above the floor.
  // Those keep iterating; the same flat windows at the floor stall.
  EXPECT_EQ(stall_floor_bound(kDimension),
            kStallFloorSlack * 17.0 * std::numeric_limits<double>::epsilon());
  IterationOptions options;
  options.tolerance = 0.0;
  options.stall_window = 2;
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  unsigned it = 0;
  for (double residual : {1e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3}) {
    EXPECT_EQ(driver.observe(++it, residual, out), Verdict::proceed) << it;
  }
  // Just above the bound is still not the floor.
  const double above = 1.01 * stall_floor_bound(kDimension);
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(driver.observe(++it, above, out), Verdict::proceed) << it;
  }
  EXPECT_FALSE(out.stalled);
  EXPECT_EQ(driver.observe(++it, kFloor, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(++it, kFloor, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(++it, kFloor, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(++it, kFloor, out), Verdict::stalled);
  EXPECT_TRUE(out.stalled);
  EXPECT_TRUE(out.converged);  // the floor sits below the default stall_accept
}

TEST(IterationDriverTest, ProgressResetsTheStallWindow) {
  IterationOptions options;
  options.tolerance = 0.0;
  options.stall_window = 2;
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  // Each window ends with the best residual improved by more than 5 %, so
  // the accounting resets instead of stalling.
  EXPECT_EQ(driver.observe(1, 1e-1, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(2, 1e-2, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(3, 1e-3, out), Verdict::proceed);
  EXPECT_EQ(driver.observe(4, 1e-4, out), Verdict::proceed);
  EXPECT_FALSE(out.stalled);
}

TEST(IterationDriverTest, GuardStampsAStructuredFailure) {
  IterationOptions options;
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;

  EXPECT_TRUE(driver.guard({1.0, 2.0}, out));
  EXPECT_EQ(out.failure, SolverFailure::none);

  out.converged = true;
  EXPECT_FALSE(driver.guard({1.0, std::nan("")}, out));
  EXPECT_EQ(out.failure, SolverFailure::non_finite);
  EXPECT_FALSE(out.converged);

  IterationResult out2;
  const std::vector<double> poisoned = {
      0.0, std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(driver.guard(std::span<const double>(poisoned), out2));
  EXPECT_EQ(out2.failure, SolverFailure::non_finite);
}

TEST(IterationDriverTest, CheckpointCadenceAndPayloadThroughTheSink) {
  IterationOptions options;
  options.checkpoint_every = 3;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  IterationDriver driver(options, io::SolverKind::arnoldi, kDimension);
  ASSERT_TRUE(driver.checkpointing());

  IterationResult out;
  out.eigenvalue = 2.5;
  out.residual = 0.5;  // the caller stamps eigenvalue/residual, not observe
  driver.observe(1, 0.5, out);
  const std::vector<double> iterate = {0.25, 0.75};
  for (unsigned it = 1; it <= 7; ++it) {
    driver.maybe_checkpoint(it, out, iterate, /*matvec_count=*/it * 10,
                            /*aux=*/1.5);
  }

  ASSERT_EQ(checkpoints.size(), 2u);  // iterations 3 and 6
  const io::SolverCheckpoint& ck = checkpoints.front();
  EXPECT_EQ(ck.iteration, 3u);
  EXPECT_EQ(checkpoints.back().iteration, 6u);
  EXPECT_EQ(ck.solver_kind, io::SolverKind::arnoldi);
  EXPECT_EQ(ck.eigenvalue, 2.5);
  EXPECT_EQ(ck.residual, 0.5);
  EXPECT_EQ(ck.best_residual, 0.5);
  EXPECT_EQ(ck.matvec_count, 30u);
  EXPECT_EQ(ck.aux, 1.5);
  EXPECT_EQ(ck.eigenvector, iterate);
}

TEST(IterationDriverTest, TimeCadenceAloneDrivesCheckpointsAndResetsOnWrite) {
  IterationOptions options;
  options.checkpoint_every = 0;  // pure wall-clock cadence
  options.checkpoint_every_seconds = 0.005;
  unsigned writes = 0;
  options.checkpoint_sink = [&](const io::SolverCheckpoint&) { ++writes; };
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  ASSERT_TRUE(driver.checkpointing());

  IterationResult out;
  const std::vector<double> iterate = {1.0};
  driver.maybe_checkpoint(1, out, iterate);
  EXPECT_EQ(writes, 0u);  // interval has not elapsed yet
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  driver.maybe_checkpoint(2, out, iterate);
  EXPECT_EQ(writes, 1u);
  driver.maybe_checkpoint(3, out, iterate);  // the write reset the clock
  EXPECT_EQ(writes, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  driver.maybe_checkpoint(4, out, iterate);
  EXPECT_EQ(writes, 2u);
}

TEST(IterationDriverTest, TimeAndIterationCadencesAreAUnion) {
  // A far-away time cadence must not suppress the iteration cadence …
  IterationOptions options;
  options.checkpoint_every = 3;
  options.checkpoint_every_seconds = 3600.0;
  unsigned writes = 0;
  options.checkpoint_sink = [&](const io::SolverCheckpoint&) { ++writes; };
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;
  const std::vector<double> iterate = {1.0};
  for (unsigned it = 1; it <= 7; ++it) driver.maybe_checkpoint(it, out, iterate);
  EXPECT_EQ(writes, 2u);  // iterations 3 and 6, exactly as without the clock

  // … and an elapsed time cadence fires between iteration-cadence marks.
  IterationOptions both;
  both.checkpoint_every = 1000000;
  both.checkpoint_every_seconds = 0.005;
  unsigned timed_writes = 0;
  both.checkpoint_sink = [&](const io::SolverCheckpoint&) { ++timed_writes; };
  IterationDriver timed(both, io::SolverKind::power, kDimension);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  timed.maybe_checkpoint(2, out, iterate);  // not a multiple of 1000000
  EXPECT_EQ(timed_writes, 1u);
}

TEST(IterationDriverTest, NegativeSecondsCadenceIsRejected) {
  IterationOptions options;
  options.checkpoint_every_seconds = -1.0;
  EXPECT_THROW(IterationDriver(options, io::SolverKind::power, kDimension),
               precondition_error);
}

TEST(IterationDriverTest, NoPathAndNoSinkMeansNoCheckpointing) {
  IterationOptions options;
  options.checkpoint_every = 1;  // cadence alone is not enough
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  EXPECT_FALSE(driver.checkpointing());
}

TEST(IterationDriverTest, AThrowingSinkIsCountedNotFatal) {
  IterationOptions options;
  options.checkpoint_every = 1;
  options.checkpoint_sink = [](const io::SolverCheckpoint&) {
    throw std::runtime_error("disk full");
  };
  IterationDriver driver(options, io::SolverKind::power, kDimension);
  IterationResult out;
  const std::vector<double> iterate = {1.0};

  EXPECT_NO_THROW(driver.write_checkpoint(1, out, iterate));
  EXPECT_NO_THROW(driver.maybe_checkpoint(2, out, iterate));
  EXPECT_EQ(out.checkpoint_failures, 2u);
  EXPECT_EQ(out.failure, SolverFailure::none);
}

TEST(IterationDriverTest, RestoreContinuesTheStallAccountingVerbatim) {
  IterationOptions options;
  options.tolerance = 0.0;
  options.stall_window = 3;
  options.stall_accept = 1e-2;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };

  // One full flat window establishes the reference best, then two more flat
  // checks leave the first driver one check away from stalling; the
  // checkpoint carries exactly that state.
  IterationDriver first(options, io::SolverKind::power, kDimension);
  IterationResult out;
  for (unsigned it = 1; it <= 5; ++it) first.observe(it, kFloor, out);
  const std::vector<double> iterate = {1.0};
  first.write_checkpoint(5, out, iterate);
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_EQ(checkpoints.front().checks_without_progress, 2u);
  EXPECT_EQ(checkpoints.front().window_start_best, kFloor);

  // A restored driver stalls on its very next flat check — exactly where
  // the uninterrupted run would have.
  IterationDriver second(options, io::SolverKind::power, kDimension);
  second.restore(checkpoints.front());
  IterationResult out2;
  EXPECT_EQ(second.observe(6, kFloor, out2), Verdict::stalled);
  EXPECT_TRUE(out2.stalled);

  // A fresh driver without the restored state needs its full window again.
  IterationDriver fresh(options, io::SolverKind::power, kDimension);
  IterationResult out3;
  EXPECT_EQ(fresh.observe(6, kFloor, out3), Verdict::proceed);
}

TEST(IterationDriverTest, CheckpointPathRoundTripsThroughBinaryIo) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("qs_iteration_driver_test_" + std::to_string(::getpid()) + ".ck");

  IterationOptions options;
  options.checkpoint_every = 1;
  options.checkpoint_path = path;
  IterationDriver driver(options, io::SolverKind::arnoldi, kDimension);
  ASSERT_TRUE(driver.checkpointing());

  IterationResult out;
  out.eigenvalue = 3.25;
  out.residual = 0.125;
  driver.observe(5, 0.125, out);
  const std::vector<double> iterate = {0.5, 0.25, 0.125};
  driver.maybe_checkpoint(5, out, iterate, /*matvec_count=*/42, /*aux=*/-1.0);

  const io::SolverCheckpoint loaded = io::load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.iteration, 5u);
  EXPECT_EQ(loaded.solver_kind, io::SolverKind::arnoldi);
  EXPECT_EQ(loaded.eigenvalue, 3.25);
  EXPECT_EQ(loaded.residual, 0.125);
  EXPECT_EQ(loaded.matvec_count, 42u);
  EXPECT_EQ(loaded.aux, -1.0);
  EXPECT_EQ(loaded.eigenvector, iterate);
}

TEST(IterationDriverTest, ShouldCheckHonoursCadenceAndTheFinalIteration) {
  IterationOptions options;
  options.residual_check_every = 4;
  IterationDriver driver(options, io::SolverKind::power, kDimension);

  EXPECT_FALSE(driver.should_check(1, 10));
  EXPECT_TRUE(driver.should_check(4, 10));
  EXPECT_FALSE(driver.should_check(9, 10));
  EXPECT_TRUE(driver.should_check(10, 10));  // last iteration always checks
}

TEST(IterationDriverTest, ZeroResidualCadenceIsRejected) {
  IterationOptions options;
  options.residual_check_every = 0;
  EXPECT_THROW(IterationDriver(options, io::SolverKind::power, kDimension),
               precondition_error);
}

TEST(IterationDriverTest, RestoreTraceRefusesAMismatchedKind) {
  io::SolverCheckpoint ck;
  ck.iteration = 7;
  ck.solver_kind = io::SolverKind::block_power;
  ck.eigenvector = {1.0, 2.0};

  IterationTrace trace;
  IterationResult out;
  try {
    restore_trace(ck, io::SolverKind::arnoldi, trace, out);
    FAIL() << "restore_trace accepted a checkpoint from another solver";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block_power"), std::string::npos) << what;
    EXPECT_NE(what.find("arnoldi"), std::string::npos) << what;
  }
}

// A kind read from a file may be one no surviving solver writes (1 and 4
// were retired solvers') or garbage: the refusal names it by its number.
TEST(IterationDriverTest, RestoreTraceNamesARetiredKindByItsNumber) {
  for (std::uint32_t kind : {1u, 4u, 0xFFFFFFFFu}) {
    io::SolverCheckpoint ck;
    ck.iteration = 5;
    ck.solver_kind = static_cast<io::SolverKind>(kind);
    ck.eigenvector = {1.0, 2.0};

    IterationTrace trace;
    IterationResult out;
    try {
      restore_trace(ck, io::SolverKind::arnoldi, trace, out);
      FAIL() << "restore_trace accepted kind " << kind;
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'retired or unknown kind " + std::to_string(kind) + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("arnoldi"), std::string::npos) << what;
    }
    EXPECT_EQ(trace.start_iteration, 0u) << "a refused checkpoint restored state";
    EXPECT_TRUE(trace.iterate.empty());
  }
}

TEST(IterationDriverTest, UnspecifiedKindIsThePowerIterationOnly) {
  io::SolverCheckpoint ck;  // v2 file: kind defaults to unspecified
  ck.iteration = 1;
  ck.eigenvector = {1.0};

  IterationTrace trace;
  IterationResult out;
  EXPECT_TRUE(restore_trace(ck, io::SolverKind::power, trace, out));
  EXPECT_THROW(restore_trace(ck, io::SolverKind::block_power, trace, out),
               precondition_error);
}

TEST(IterationDriverTest, RestoreTraceTakesTheCheckpointVerbatim) {
  io::SolverCheckpoint ck;
  ck.iteration = 9;
  ck.solver_kind = io::SolverKind::block_power;
  ck.eigenvalue = 4.5;
  ck.residual = 1e-5;
  ck.matvec_count = 123;
  ck.aux = 2.5;
  ck.eigenvector = {0.1, 0.2, 0.3};

  IterationTrace trace;
  IterationResult out;
  ASSERT_TRUE(restore_trace(ck, io::SolverKind::block_power, trace, out));
  EXPECT_EQ(trace.start_iteration, 9u);
  EXPECT_EQ(trace.eigenvalue, 4.5);
  EXPECT_EQ(trace.residual, 1e-5);
  EXPECT_EQ(trace.matvec_count, 123u);
  EXPECT_EQ(trace.aux, 2.5);
  EXPECT_EQ(trace.iterate, ck.eigenvector);
}

TEST(IterationDriverTest, RestoreTraceRefusesAPoisonedIterate) {
  io::SolverCheckpoint ck;
  ck.iteration = 2;
  ck.solver_kind = io::SolverKind::power;
  ck.eigenvector = {1.0, std::nan(""), 3.0};

  IterationTrace trace;
  IterationResult out;
  EXPECT_FALSE(restore_trace(ck, io::SolverKind::power, trace, out));
  EXPECT_EQ(out.failure, SolverFailure::non_finite);
  EXPECT_FALSE(out.converged);
}

}  // namespace
}  // namespace qs::solvers
