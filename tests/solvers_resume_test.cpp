// Bitwise checkpoint/resume trajectories for the Arnoldi and block solvers,
// and the refusal of checkpoints no surviving solver wrote, of block panels
// of another width and of poisoned panels.
//
// The iteration-driver contract (solvers/iteration_driver.hpp): a resumed
// run takes the checkpointed iterate verbatim, restores the stall-window
// accounting, and therefore reproduces the uninterrupted run's residual
// trajectory bit for bit on the serial backend.  resilience_test.cpp proves
// this for the power iteration through on-disk checkpoints; these tests
// prove it for Arnoldi and block power through the in-memory
// checkpoint_sink seam: run an uninterrupted reference capturing every
// periodic checkpoint, resume from a mid-flight one, and compare every
// subsequent residual observation with EXPECT_EQ — no tolerance.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "distributed/distributed_solver.hpp"
#include "io/binary_io.hpp"
#include "solvers/arnoldi.hpp"
#include "solvers/block_power.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

using ResidualTrace = std::map<unsigned, double>;

core::MutationModel test_model() { return core::MutationModel::uniform(10, 0.01); }
core::Landscape test_landscape() {
  return core::Landscape::random(10, 5.0, 1.0, 77);
}

// Entries of `trace` strictly after `iteration` — what a resume from that
// iteration's checkpoint must reproduce exactly.
ResidualTrace tail_after(const ResidualTrace& trace, unsigned iteration) {
  ResidualTrace tail;
  for (const auto& [it, res] : trace) {
    if (it > iteration) tail[it] = res;
  }
  return tail;
}

const io::SolverCheckpoint& checkpoint_at(
    const std::vector<io::SolverCheckpoint>& checkpoints, std::uint64_t iteration) {
  for (const auto& ck : checkpoints) {
    if (ck.iteration == iteration) return ck;
  }
  throw std::logic_error("no checkpoint captured at the requested iteration");
}

TEST(SolversResumeTest, ArnoldiResumeReproducesTheTrajectoryBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  ArnoldiOptions options;
  options.tolerance = 0.0;
  options.basis_size = 4;
  options.max_restarts = 6;
  options.checkpoint_every = 2;

  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  ResidualTrace reference_trace;
  options.on_residual = [&](unsigned it, double res) { reference_trace[it] = res; };

  const ArnoldiResult reference = arnoldi_dominant_w(model, fitness, {}, options);
  ASSERT_EQ(reference.iterations, 7u);  // max_restarts + 1 cycles
  ASSERT_EQ(reference.failure, SolverFailure::none);
  ASSERT_EQ(checkpoints.size(), 3u);  // cycles 2, 4, 6

  const io::SolverCheckpoint& mid = checkpoint_at(checkpoints, 2);
  EXPECT_EQ(mid.solver_kind, io::SolverKind::arnoldi);

  ArnoldiOptions resume_options;
  resume_options.tolerance = 0.0;
  resume_options.basis_size = 4;
  resume_options.max_restarts = 6;
  ResidualTrace resumed_trace;
  resume_options.on_residual = [&](unsigned it, double res) {
    resumed_trace[it] = res;
  };

  const ArnoldiResult resumed =
      resume_arnoldi_dominant_w(model, fitness, mid, resume_options);

  EXPECT_EQ(resumed_trace, tail_after(reference_trace, 2));
  EXPECT_EQ(resumed.iterations, reference.iterations);
  EXPECT_EQ(resumed.matvec_count, reference.matvec_count);
  EXPECT_EQ(resumed.eigenvalue, reference.eigenvalue);
  EXPECT_EQ(resumed.residual, reference.residual);
  EXPECT_EQ(resumed.concentrations, reference.concentrations);
}

TEST(SolversResumeTest, BlockPowerResumeReproducesTheTrajectoryBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  BlockPowerOptions options;
  options.tolerance = 0.0;
  options.k = 2;
  options.block = 4;
  options.max_iterations = 12;
  options.checkpoint_every = 4;

  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  ResidualTrace reference_trace;
  options.on_residual = [&](unsigned it, double res) { reference_trace[it] = res; };

  const BlockPowerResult reference = top_k_spectrum(model, fitness, options);
  ASSERT_EQ(reference.iterations, 12u);
  ASSERT_EQ(reference.failure, SolverFailure::none);
  ASSERT_EQ(checkpoints.size(), 3u);  // panel products 4, 8, 12

  const io::SolverCheckpoint& mid = checkpoint_at(checkpoints, 4);
  EXPECT_EQ(mid.solver_kind, io::SolverKind::block_power);
  EXPECT_EQ(mid.aux, 4.0);  // the panel width rides in aux
  EXPECT_EQ(mid.eigenvector.size(), model.dimension() * 4);

  BlockPowerOptions resume_options;
  resume_options.tolerance = 0.0;
  resume_options.k = 2;
  resume_options.block = 4;
  resume_options.max_iterations = 12;
  ResidualTrace resumed_trace;
  resume_options.on_residual = [&](unsigned it, double res) {
    resumed_trace[it] = res;
  };

  const BlockPowerResult resumed =
      resume_top_k_spectrum(model, fitness, mid, resume_options);

  EXPECT_EQ(resumed_trace, tail_after(reference_trace, 4));
  EXPECT_EQ(resumed.iterations, reference.iterations);
  ASSERT_EQ(resumed.eigenvalues.size(), reference.eigenvalues.size());
  for (std::size_t j = 0; j < reference.eigenvalues.size(); ++j) {
    EXPECT_EQ(resumed.eigenvalues[j], reference.eigenvalues[j]) << j;
    EXPECT_EQ(resumed.residuals[j], reference.residuals[j]) << j;
  }
  ASSERT_EQ(resumed.eigenvectors.size(), reference.eigenvectors.size());
  for (std::size_t j = 0; j < reference.eigenvectors.size(); ++j) {
    ASSERT_EQ(resumed.eigenvectors[j], reference.eigenvectors[j]) << j;
  }
}

// A block checkpoint carries the whole n x m panel and its width m in aux;
// a panel of another size or width must be refused, not reinterpreted.
TEST(SolversResumeTest, BlockResumeRefusesAPanelOfAnotherWidth) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  BlockPowerOptions options;
  options.tolerance = 0.0;
  options.k = 2;
  options.block = 4;
  options.max_iterations = 4;
  options.checkpoint_every = 4;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  top_k_spectrum(model, fitness, options);
  ASSERT_EQ(checkpoints.size(), 1u);
  const io::SolverCheckpoint& ck = checkpoints.front();

  BlockPowerOptions narrower;
  narrower.k = 2;
  narrower.block = 2;
  try {
    resume_top_k_spectrum(model, fitness, ck, narrower);
    FAIL() << "a 4-wide panel resumed at width 2";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match n x m"), std::string::npos)
        << e.what();
  }

  // The right number of doubles under the wrong recorded width.
  io::SolverCheckpoint relabelled = ck;
  relabelled.aux = 8.0;
  relabelled.eigenvector.resize(model.dimension() * 4);
  BlockPowerOptions same;
  same.k = 2;
  same.block = 4;
  try {
    resume_top_k_spectrum(model, fitness, relabelled, same);
    FAIL() << "a panel recorded as 8 wide resumed at width 4";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("panel width does not match"),
              std::string::npos)
        << e.what();
  }
}

TEST(SolversResumeTest, PoisonedBlockPanelIsRefusedWithAStructuredFailure) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  BlockPowerOptions options;
  options.tolerance = 0.0;
  options.k = 2;
  options.block = 4;
  options.max_iterations = 4;
  options.checkpoint_every = 4;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  top_k_spectrum(model, fitness, options);
  ASSERT_EQ(checkpoints.size(), 1u);

  io::SolverCheckpoint poisoned = checkpoints.front();
  poisoned.eigenvector[5] = std::numeric_limits<double>::infinity();

  BlockPowerOptions resume_options;
  resume_options.k = 2;
  resume_options.block = 4;
  const BlockPowerResult resumed =
      resume_top_k_spectrum(model, fitness, poisoned, resume_options);
  EXPECT_EQ(resumed.failure, SolverFailure::non_finite);
  EXPECT_FALSE(resumed.converged);
  EXPECT_EQ(resumed.iterations, 4u);  // refused before any further product
}

TEST(SolversResumeTest, ResumeRefusesACheckpointFromADifferentSolver) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  ArnoldiOptions options;
  options.tolerance = 0.0;
  options.basis_size = 4;
  options.max_restarts = 2;
  options.checkpoint_every = 1;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  arnoldi_dominant_w(model, fitness, {}, options);
  ASSERT_FALSE(checkpoints.empty());

  SolveOptions power;
  power.resume = &checkpoints.front();
  try {
    solve(model, fitness, power);
    FAIL() << "resume accepted a checkpoint written by another solver";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'arnoldi'"), std::string::npos) << what;
    EXPECT_NE(what.find("'power'"), std::string::npos) << what;
  }
}

TEST(SolversResumeTest, BlockPowerResumeRefusesAMismatchedPanelWidth) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  BlockPowerOptions options;
  options.tolerance = 0.0;
  options.k = 2;
  options.block = 4;
  options.max_iterations = 2;
  options.checkpoint_every = 1;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  top_k_spectrum(model, fitness, options);
  ASSERT_FALSE(checkpoints.empty());

  BlockPowerOptions wider = options;
  wider.checkpoint_sink = nullptr;
  wider.block = 8;
  EXPECT_THROW(resume_top_k_spectrum(model, fitness, checkpoints.front(), wider),
               precondition_error);
}

TEST(SolversResumeTest, PoisonedCheckpointIsRefusedWithAStructuredFailure) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  ArnoldiOptions options;
  options.tolerance = 0.0;
  options.basis_size = 4;
  options.max_restarts = 2;
  options.checkpoint_every = 1;
  std::vector<io::SolverCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const io::SolverCheckpoint& ck) {
    checkpoints.push_back(ck);
  };
  arnoldi_dominant_w(model, fitness, {}, options);
  ASSERT_FALSE(checkpoints.empty());

  io::SolverCheckpoint poisoned = checkpoints.front();
  poisoned.eigenvector[3] = std::nan("");

  const ArnoldiResult resumed =
      resume_arnoldi_dominant_w(model, fitness, poisoned, {});
  EXPECT_EQ(resumed.failure, SolverFailure::non_finite);
  EXPECT_FALSE(resumed.converged);
}

TEST(SolversResumeTest, AThrowingSinkDegradesDurabilityNotTheSolve) {
  const auto model = test_model();
  const auto fitness = test_landscape();

  ArnoldiOptions options;
  options.tolerance = 0.0;
  options.basis_size = 4;
  options.max_restarts = 6;

  const ArnoldiResult reference = arnoldi_dominant_w(model, fitness, {}, options);

  options.checkpoint_every = 2;
  options.checkpoint_sink = [](const io::SolverCheckpoint&) {
    throw std::runtime_error("injected checkpoint I/O failure");
  };
  const ArnoldiResult damaged = arnoldi_dominant_w(model, fitness, {}, options);

  EXPECT_EQ(damaged.checkpoint_failures, 3u);  // cycles 2, 4, 6
  EXPECT_EQ(damaged.failure, SolverFailure::none);
  EXPECT_EQ(damaged.iterations, reference.iterations);
  EXPECT_EQ(damaged.eigenvalue, reference.eigenvalue);
  EXPECT_EQ(damaged.residual, reference.residual);
}

// Kinds 1 and 4 were written by solvers that are gone (restarted Lanczos,
// and the shift-invert outer loop, now a reference oracle without
// checkpoints); 7 and 0xFFFFFFFF were never assigned.  A v4 file carrying any of them loads,
// and every surviving resume path refuses it with the structured error.
TEST(SolversResumeTest, RetiredAndUnknownKindsAreRefusedOnEveryResumePath) {
  const unsigned nu = 5;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto fitness = core::Landscape::random(nu, 5.0, 1.0, 3);
  const std::size_t n = model.dimension();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("qs_retired_kind_" + std::to_string(::getpid()) + ".qs");

  for (std::uint32_t kind : {1u, 4u, 7u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(::testing::Message() << "kind " << kind);
    io::SolverCheckpoint written;
    written.iteration = 3;
    written.eigenvalue = 2.0;
    written.residual = 1e-3;
    written.solver_kind = static_cast<io::SolverKind>(kind);
    written.eigenvector.assign(n, 1.0 / static_cast<double>(n));
    io::save_checkpoint(path, written);
    const io::SolverCheckpoint ck = io::load_checkpoint(path);
    ASSERT_EQ(static_cast<std::uint32_t>(ck.solver_kind), kind);
    // The block panel is n x 2 (k = 2 picks m = 2).
    io::SolverCheckpoint panel = ck;
    panel.eigenvector.assign(2 * n, 1.0 / static_cast<double>(n));
    panel.aux = 2.0;

    const std::string expected =
        "written by the 'retired or unknown kind " + std::to_string(kind) +
        "' solver";
    auto expect_refused = [&expected](const char* path_name, auto&& resume) {
      try {
        resume();
        ADD_FAILURE() << path_name << " resumed a retired checkpoint kind";
      } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << path_name << ": " << e.what();
      }
    };
    expect_refused("power facade", [&] {
      SolveOptions options;
      options.resume = &ck;
      solve(model, fitness, options);
    });
    expect_refused("power", [&] {
      const core::FmmpOperator op(model, fitness);
      resume_power_iteration(op, ck);
    });
    expect_refused("distributed power", [&] {
      distributed::resume_distributed_power_iteration(model, fitness, 2, ck);
    });
    expect_refused("arnoldi", [&] { resume_arnoldi_dominant_w(model, fitness, ck); });
    expect_refused("block", [&] { resume_top_k_spectrum(model, fitness, panel); });
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace qs::solvers
