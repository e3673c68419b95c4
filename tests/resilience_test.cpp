// Checkpoint/resume resilience tests: an interrupted power iteration resumed
// from its periodic checkpoint reproduces the uninterrupted run bit for bit,
// and torn checkpoint files are rejected without losing the previous one.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "io/binary_io.hpp"
#include "reference/fault_injection.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"

namespace qs {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("qs_resilience_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

TEST_F(ResilienceTest, KillAndResumeReproducesTheTrajectoryBitForBit) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 77);
  const core::FmmpOperator op(model, landscape);
  const auto start = solvers::landscape_start(landscape);

  // Reference: one uninterrupted serial run, tracing every residual check.
  std::map<unsigned, double> reference;
  solvers::PowerOptions ref_opts;
  ref_opts.residual_check_every = 1;
  ref_opts.on_residual = [&reference](unsigned it, double res) {
    reference[it] = res;
  };
  const auto full = solvers::power_iteration(op, start, ref_opts);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 25u) << "test needs a run long enough to interrupt";

  // "Killed" run: same configuration plus periodic checkpointing, hard
  // stopped at iteration 25 (the cap models the kill signal).
  solvers::PowerOptions first_leg = ref_opts;
  first_leg.on_residual = nullptr;
  first_leg.checkpoint_path = path("solve.ck");
  first_leg.checkpoint_every = 7;
  first_leg.max_iterations = 25;
  const auto partial = solvers::power_iteration(op, start, first_leg);
  EXPECT_FALSE(partial.converged);

  // The last periodic checkpoint before the kill is iteration 21.
  const auto ck = io::load_checkpoint(path("solve.ck"));
  ASSERT_EQ(ck.iteration, 21u);

  // Resume and trace: every residual check from iteration 22 onward must be
  // bit-identical to the uninterrupted run — same iterate, same arithmetic,
  // same stall-window state, no re-normalisation on the way in.
  std::map<unsigned, double> resumed_trace;
  solvers::PowerOptions second_leg = ref_opts;
  second_leg.on_residual = [&resumed_trace](unsigned it, double res) {
    resumed_trace[it] = res;
  };
  const auto resumed = solvers::resume_power_iteration(op, ck, second_leg);
  ASSERT_TRUE(resumed.converged);

  ASSERT_FALSE(resumed_trace.empty());
  EXPECT_EQ(resumed_trace.begin()->first, 22u);
  for (const auto& [it, res] : resumed_trace) {
    ASSERT_TRUE(reference.count(it)) << "iteration " << it;
    EXPECT_EQ(reference.at(it), res) << "iteration " << it;  // bitwise
  }
  // The terminal state matches bit for bit as well.
  EXPECT_EQ(resumed.iterations, full.iterations);
  EXPECT_EQ(resumed.eigenvalue, full.eigenvalue);
  EXPECT_EQ(resumed.residual, full.residual);
  ASSERT_EQ(resumed.eigenvector.size(), full.eigenvector.size());
  for (std::size_t i = 0; i < full.eigenvector.size(); ++i) {
    ASSERT_EQ(resumed.eigenvector[i], full.eigenvector[i]) << "entry " << i;
  }
}

TEST_F(ResilienceTest, TornCheckpointIsRejectedAndThePreviousOneSurvives) {
  // A crash mid-write can only ever leave a stale *.tmp sibling behind: the
  // destination is replaced atomically, so the previous checkpoint survives
  // any interruption.  Model the crash by hand-writing a half-finished tmp.
  io::SolverCheckpoint good;
  good.iteration = 42;
  good.eigenvalue = 1.5;
  good.eigenvector = {0.5, 0.5};
  io::save_checkpoint(path("c.qs"), good);

  {
    std::ofstream tmp(path("c.qs.tmp"), std::ios::binary);
    tmp << "partial garbage from a crashed writer";
  }
  const auto loaded = io::load_checkpoint(path("c.qs"));
  EXPECT_EQ(loaded.iteration, 42u);
  EXPECT_EQ(loaded.eigenvalue, 1.5);

  // And a checkpoint that *was* torn on disk (e.g. copied off a dying node)
  // is rejected at load instead of resuming from garbage.
  std::filesystem::copy_file(path("c.qs"), path("torn.qs"));
  std::filesystem::resize_file(path("torn.qs"),
                               std::filesystem::file_size(path("torn.qs")) - 8);
  EXPECT_THROW(io::load_checkpoint(path("torn.qs")), std::runtime_error);
  // The original is still loadable after the failed read of its copy.
  EXPECT_EQ(io::load_checkpoint(path("c.qs")).iteration, 42u);
}

TEST_F(ResilienceTest, ResumeRejectsDimensionMismatch) {
  const auto model = core::MutationModel::uniform(6, 0.01);
  const auto landscape = core::Landscape::single_peak(6, 2.0, 1.0);
  const core::FmmpOperator op(model, landscape);
  io::SolverCheckpoint ck;
  ck.eigenvector.assign(16, 1.0 / 16.0);  // wrong: operator dimension is 64
  EXPECT_THROW(solvers::resume_power_iteration(op, ck), precondition_error);
}

TEST_F(ResilienceTest, ResumeRefusesAPoisonedCheckpoint) {
  const auto model = core::MutationModel::uniform(6, 0.01);
  const auto landscape = core::Landscape::single_peak(6, 2.0, 1.0);
  const core::FmmpOperator op(model, landscape);
  io::SolverCheckpoint ck;
  ck.iteration = 10;
  ck.eigenvector.assign(64, 1.0 / 64.0);
  ck.eigenvector[7] = std::numeric_limits<double>::infinity();
  const auto r = solvers::resume_power_iteration(op, ck);
  EXPECT_EQ(r.failure, solvers::SolverFailure::non_finite);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 10u);  // no products performed on garbage
}

TEST_F(ResilienceTest, FacadeFallsBackWhenTheCheckpointFileIsTorn) {
  // A transient NaN with a *corrupted* checkpoint on disk: the facade must
  // reject the torn file, fall back to the unshifted retry, and still
  // converge — never resume from garbage.
  const auto model = core::MutationModel::uniform(8, 0.01);
  const auto landscape = core::Landscape::single_peak(8, 2.0, 1.0);

  solvers::SolveOptions opts;
  opts.checkpoint_path = path("solve.ck");
  opts.checkpoint_every = 4;
  testing::FaultInjectingOperator::Config cfg;
  cfg.nan_at_apply = 10;
  struct Owning final : core::LinearOperator {
    std::unique_ptr<core::LinearOperator> held;
    testing::FaultInjectingOperator faulty;
    std::filesystem::path ck;
    Owning(std::unique_ptr<core::LinearOperator> op,
           testing::FaultInjectingOperator::Config cfg, std::filesystem::path p)
        : held(std::move(op)), faulty(*held, cfg), ck(std::move(p)) {}
    seq_t dimension() const override { return faulty.dimension(); }
    std::string_view name() const override { return faulty.name(); }
    void apply(std::span<const double> x, std::span<double> y) const override {
      faulty.apply(x, y);
      // Right after the poisoned product: tear the checkpoint on disk so the
      // recovery path finds a corrupt file.
      if (faulty.apply_count() == 10 && std::filesystem::exists(ck)) {
        std::filesystem::resize_file(ck, std::filesystem::file_size(ck) - 8);
      }
    }
  };
  const auto ck_path = opts.checkpoint_path;
  opts.wrap_operator = [cfg, ck_path](std::unique_ptr<core::LinearOperator> inner) {
    return std::unique_ptr<core::LinearOperator>(
        new Owning(std::move(inner), cfg, ck_path));
  };

  const auto r = solvers::solve(model, landscape, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.failure, solvers::SolverFailure::none);
  EXPECT_EQ(r.recovery_attempts, 1u);  // the unshifted retry, not the resume
}

}  // namespace
}  // namespace qs
