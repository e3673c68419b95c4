// Unit tests for binary persistence (vectors, landscapes, checkpoints).
#include "io/binary_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/fmmp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/rng.hpp"

namespace qs::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("qs_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

TEST_F(IoTest, VectorRoundTrip) {
  std::vector<double> data(1000);
  Xoshiro256 rng(1);
  for (double& v : data) v = rng.uniform(-1.0, 1.0);
  save_vector(path("v.qs"), data);
  const auto loaded = load_vector(path("v.qs"));
  ASSERT_EQ(loaded.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(loaded[i], data[i]);  // bit exact
  }
}

TEST_F(IoTest, EmptyVectorRoundTrip) {
  save_vector(path("empty.qs"), {});
  EXPECT_TRUE(load_vector(path("empty.qs")).empty());
}

TEST_F(IoTest, LandscapeRoundTrip) {
  const auto original = core::Landscape::random(8, 5.0, 1.0, 42);
  save_landscape(path("l.qs"), original);
  const auto loaded = load_landscape(path("l.qs"));
  EXPECT_EQ(loaded.nu(), original.nu());
  for (seq_t i = 0; i < original.dimension(); ++i) {
    EXPECT_EQ(loaded.value(i), original.value(i));
  }
}

TEST_F(IoTest, CheckpointRoundTrip) {
  SolverCheckpoint state;
  state.iteration = 123456;
  state.eigenvalue = 4.321;
  state.eigenvector.assign(256, 0.0);
  Xoshiro256 rng(2);
  for (double& v : state.eigenvector) v = rng.uniform(0.0, 1.0);

  save_checkpoint(path("c.qs"), state);
  const auto loaded = load_checkpoint(path("c.qs"));
  EXPECT_EQ(loaded.iteration, state.iteration);
  EXPECT_EQ(loaded.eigenvalue, state.eigenvalue);
  ASSERT_EQ(loaded.eigenvector.size(), state.eigenvector.size());
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(loaded.eigenvector[i], state.eigenvector[i]);
  }
}

TEST_F(IoTest, RejectsMissingFile) {
  EXPECT_THROW(load_vector(path("does_not_exist.qs")), std::runtime_error);
}

TEST_F(IoTest, RejectsWrongMagic) {
  std::ofstream file(path("garbage.qs"), std::ios::binary);
  file << "this is not a quasispecies file at all, padding padding padding";
  file.close();
  EXPECT_THROW(load_vector(path("garbage.qs")), std::runtime_error);
}

TEST_F(IoTest, RejectsKindMismatch) {
  save_vector(path("v.qs"), std::vector<double>{1.0, 2.0});
  EXPECT_THROW(load_landscape(path("v.qs")), std::runtime_error);
  EXPECT_THROW(load_checkpoint(path("v.qs")), std::runtime_error);
}

TEST_F(IoTest, RejectsTruncatedPayload) {
  std::vector<double> data(100, 1.0);
  save_vector(path("t.qs"), data);
  // Chop the file short.
  const auto full = std::filesystem::file_size(path("t.qs"));
  std::filesystem::resize_file(path("t.qs"), full - 64);
  EXPECT_THROW(load_vector(path("t.qs")), std::runtime_error);
}

TEST_F(IoTest, TamperedPayloadFailsTheChecksum) {
  // A landscape with one payload double overwritten after the fact is caught
  // by the header checksum before the Landscape constructor ever sees it.
  const auto original = core::Landscape::flat(3, 1.0);
  save_landscape(path("l.qs"), original);
  std::fstream file(path("l.qs"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(40);  // just past the 40-byte header
  const double zero = 0.0;
  file.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  file.close();
  EXPECT_THROW(load_landscape(path("l.qs")), std::runtime_error);
}

TEST_F(IoTest, RejectsLengthMismatch) {
  // The declared element count is validated against the true file size in
  // both directions before any payload is read.
  save_vector(path("v.qs"), std::vector<double>(64, 1.0));
  {
    // Longer than declared: append trailing garbage.
    std::ofstream file(path("v.qs"), std::ios::binary | std::ios::app);
    file << "trailing garbage";
  }
  EXPECT_THROW(load_vector(path("v.qs")), std::runtime_error);

  save_vector(path("w.qs"), std::vector<double>(64, 1.0));
  // Shorter than declared but still past the header: a classic torn write.
  std::filesystem::resize_file(path("w.qs"),
                               std::filesystem::file_size(path("w.qs")) - 8);
  EXPECT_THROW(load_vector(path("w.qs")), std::runtime_error);
}

TEST_F(IoTest, RejectsAbsurdDeclaredLengthBeforeAllocating) {
  // A corrupted count field near 2^62 is the dangerous case: multiplying it
  // by sizeof(double) wraps std::uint64_t, so a size check phrased as
  // `header + count * 8 == file_size` could pass and drive a huge
  // allocation.  The reader must reject on the count itself, before any
  // resize.
  save_vector(path("a.qs"), std::vector<double>(8, 1.0));
  std::fstream file(path("a.qs"), std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(16);  // meta0 (element count) lives after magic/version/kind/checksum
  const std::uint64_t absurd = 1ull << 62;
  file.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  file.close();
  try {
    load_vector(path("a.qs"));
    FAIL() << "absurd declared length must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("absurd payload length"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, SaveLeavesNoTemporaryBehind) {
  save_vector(path("v.qs"), std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(std::filesystem::exists(path("v.qs")));
  EXPECT_FALSE(std::filesystem::exists(path("v.qs.tmp")));
}

TEST_F(IoTest, FailedSaveKeepsThePreviousFileIntact) {
  // Atomicity contract: when a save cannot complete, the destination keeps
  // its previous content.  A directory squatting on the temporary sibling's
  // path makes the write fail before the rename ever happens.
  std::vector<double> v1{1.0, 2.0};
  save_vector(path("v.qs"), v1);
  std::filesystem::create_directories(path("v.qs.tmp"));
  EXPECT_THROW(save_vector(path("v.qs"), std::vector<double>{9.0}),
               std::runtime_error);
  const auto still = load_vector(path("v.qs"));
  ASSERT_EQ(still.size(), v1.size());
  EXPECT_EQ(still[0], 1.0);
  EXPECT_EQ(still[1], 2.0);
}

TEST_F(IoTest, CheckpointRoundTripPreservesProgressState) {
  SolverCheckpoint state;
  state.iteration = 999;
  state.eigenvalue = 2.5;
  state.residual = 1e-7;
  state.best_residual = 5e-8;
  state.window_start_best = 6e-8;
  state.checks_without_progress = 3;
  state.eigenvector = {0.25, 0.75};
  save_checkpoint(path("c.qs"), state);
  const auto loaded = load_checkpoint(path("c.qs"));
  EXPECT_EQ(loaded.iteration, state.iteration);
  EXPECT_EQ(loaded.eigenvalue, state.eigenvalue);
  EXPECT_EQ(loaded.residual, state.residual);
  EXPECT_EQ(loaded.best_residual, state.best_residual);
  EXPECT_EQ(loaded.window_start_best, state.window_start_best);
  EXPECT_EQ(loaded.checks_without_progress, state.checks_without_progress);
  ASSERT_EQ(loaded.eigenvector.size(), 2u);
  EXPECT_EQ(loaded.eigenvector[0], 0.25);
  EXPECT_EQ(loaded.eigenvector[1], 0.75);
}


/// Rewrites a checkpoint file as format `version` with the given payload
/// (trailer + iterate): header fields and the FNV-1a checksum recomputed,
/// the iteration and eigenvalue kept.
void rewrite_checkpoint(const std::filesystem::path& file, std::uint32_t version,
                        const std::vector<double>& payload) {
  char header[40];
  {
    std::ifstream in(file, std::ios::binary);
    in.read(header, sizeof(header));
  }
  std::uint32_t hash = 2166136261u;
  const auto* bytes = reinterpret_cast<const unsigned char*>(payload.data());
  for (std::size_t i = 0; i < payload.size() * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  const std::uint64_t count = payload.size();
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 12, &hash, sizeof(hash));
  std::memcpy(header + 16, &count, sizeof(count));
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(header, sizeof(header));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(double)));
}

SolverCheckpoint cycling_checkpoint() {
  SolverCheckpoint state;
  state.iteration = 57;
  state.eigenvalue = 1.25;
  state.residual = 3e-6;
  state.solver_kind = SolverKind::power;
  state.matvec_count = 57;
  state.schedule.phase = 1;
  state.schedule.position = 5;
  state.schedule.last_residual = 4e-5;
  state.schedule.last_ratio = 0.91;
  state.schedule.decay = 0.93;
  state.schedule.upper = 1.1;
  state.schedule.best = 2e-6;
  state.schedule.engaged_at = 31;
  state.schedule.fallbacks = 2;
  state.eigenvector = {0.25, 0.75};
  return state;
}

TEST_F(IoTest, CheckpointRoundTripPreservesTheShiftSchedule) {
  const SolverCheckpoint state = cycling_checkpoint();
  save_checkpoint(path("c.qs"), state);
  const ShiftScheduleState loaded = load_checkpoint(path("c.qs")).schedule;
  EXPECT_EQ(loaded.phase, 1u);
  EXPECT_EQ(loaded.position, 5u);
  EXPECT_EQ(loaded.last_residual, state.schedule.last_residual);
  EXPECT_EQ(loaded.last_ratio, state.schedule.last_ratio);
  EXPECT_EQ(loaded.decay, state.schedule.decay);
  EXPECT_EQ(loaded.upper, state.schedule.upper);
  EXPECT_EQ(loaded.best, state.schedule.best);
  EXPECT_EQ(loaded.engaged_at, 31u);
  EXPECT_EQ(loaded.fallbacks, 2u);
}

TEST_F(IoTest, VersionThreeCheckpointLoadsWithTheColdStartSchedule) {
  // A v3 file has a seven-slot trailer: everything but the schedule loads,
  // and the schedule starts over in its estimation phase.
  save_checkpoint(path("c.qs"), cycling_checkpoint());
  std::vector<double> payload = {3e-6, 0.0, 0.0, 0.0, 0.0, 57.0, 0.0, 0.25, 0.75};
  rewrite_checkpoint(path("c.qs"), 3, payload);
  const SolverCheckpoint loaded = load_checkpoint(path("c.qs"));
  EXPECT_EQ(loaded.iteration, 57u);
  EXPECT_EQ(loaded.matvec_count, 57u);
  ASSERT_EQ(loaded.eigenvector.size(), 2u);
  EXPECT_EQ(loaded.eigenvector[1], 0.75);
  EXPECT_EQ(loaded.schedule.phase, 0u);
  EXPECT_EQ(loaded.schedule.position, 0u);
  EXPECT_EQ(loaded.schedule.last_residual, 0.0);
  EXPECT_EQ(loaded.schedule.engaged_at, 0u);
}

TEST_F(IoTest, CorruptTrailerCountsAreRefused) {
  // A trailer count no writer produces (an unknown phase, a negative,
  // fractional or non-finite count) is a structured error, never a cast
  // of an out-of-range double.
  save_checkpoint(path("c.qs"), cycling_checkpoint());
  for (const auto& [slot, value] :
       std::vector<std::pair<std::size_t, double>>{
           {3, -2.0}, {4, 0.5}, {5, HUGE_VAL}, {7, 2.0}, {8, -1.0}, {14, 0.5},
           {15, std::nan("")}, {14, 1e300}}) {
    SCOPED_TRACE(::testing::Message() << "slot " << slot << " = " << value);
    std::vector<double> payload = {3e-6, 0.0, 0.0, 0.0, 0.0, 57.0, 0.0,
                                   1.0,  5.0, 4e-5, 0.91, 0.93, 1.1, 2e-6,
                                   31.0, 2.0, 0.25, 0.75};
    payload[slot] = value;
    rewrite_checkpoint(path("c.qs"), 4, payload);
    EXPECT_THROW(load_checkpoint(path("c.qs")), std::runtime_error);
  }
}

TEST_F(IoTest, CheckpointResumeContinuesThePowerIteration) {
  // Interrupt a solve, persist the state, reload, and finish: the resumed
  // run must converge to the same eigenpair in far fewer iterations than a
  // cold start.
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 77);
  const core::FmmpOperator op(model, landscape);
  const auto start = solvers::landscape_start(landscape);

  // Phase 1: run a few iterations only and checkpoint.
  solvers::PowerOptions first_leg;
  first_leg.max_iterations = 8;
  first_leg.tolerance = 1e-15;
  const auto partial = solvers::power_iteration(op, start, first_leg);
  EXPECT_FALSE(partial.converged);
  SolverCheckpoint state;
  state.iteration = partial.iterations;
  state.eigenvalue = partial.eigenvalue;
  state.eigenvector = partial.eigenvector;
  save_checkpoint(path("resume.qs"), state);

  // Phase 2: reload and resume.
  const auto loaded = load_checkpoint(path("resume.qs"));
  EXPECT_EQ(loaded.iteration, 8u);
  solvers::PowerOptions second_leg;
  const auto resumed = solvers::power_iteration(op, loaded.eigenvector, second_leg);
  ASSERT_TRUE(resumed.converged);

  // Reference: full cold solve.
  const auto cold = solvers::power_iteration(op, start, second_leg);
  ASSERT_TRUE(cold.converged);
  EXPECT_NEAR(resumed.eigenvalue, cold.eigenvalue, 1e-11);
  EXPECT_LT(resumed.iterations + loaded.iteration, cold.iterations + 4u);
}

}  // namespace
}  // namespace qs::io
