// Unit tests for the high-level quasispecies solver facade.
#include "solvers/quasispecies_solver.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/spectral.hpp"
#include "distributed/reduction.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/engine.hpp"
#include "reference/smvp.hpp"
#include "reference/sparse_w.hpp"
#include "reference/xmvp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/contracts.hpp"
#include "test_engines.hpp"

namespace qs::solvers {
namespace {

/// The facade's solve on a reference product: the same shifted power
/// iteration from the same landscape start, with `op` in place of Fmmp.
/// (The uniform models below are symmetric, so the facade shifts.)
PowerResult reference_solve(const core::LinearOperator& op,
                            const core::MutationModel& model,
                            const core::Landscape& landscape,
                            double tolerance = SolveOptions{}.tolerance) {
  PowerOptions opts;
  opts.tolerance = tolerance;
  opts.shift = core::conservative_shift(model, landscape);
  return power_iteration(op, landscape_start(landscape), opts);
}

TEST(Facade, GeneralAndReducedPathsAgreeOnErrorClassLandscape) {
  const unsigned nu = 9;
  const double p = 0.03;
  const auto ecl = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);

  const auto reduced = solve(p, ecl);
  ASSERT_TRUE(reduced.converged);

  const auto model = core::MutationModel::uniform(nu, p);
  const auto full_landscape = ecl.expand();
  const auto general = solve(model, full_landscape);
  ASSERT_TRUE(general.converged);

  EXPECT_NEAR(reduced.eigenvalue, general.eigenvalue, 1e-9 * general.eigenvalue);
  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_NEAR(reduced.class_concentrations[k], general.class_concentrations[k],
                1e-8);
  }
  ASSERT_EQ(reduced.concentrations.size(), general.concentrations.size());
  EXPECT_LT(linalg::max_abs_diff(reduced.concentrations, general.concentrations),
            1e-8);
}

TEST(Facade, AgreesWithSmvpAndXmvpOracles) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 3);

  const auto fmmp = solve(model, landscape);
  const auto xmvp =
      reference_solve(core::XmvpOperator(model, landscape, nu), model, landscape);
  const auto smvp = reference_solve(core::SmvpOperator(model, landscape), model, landscape);

  ASSERT_TRUE(fmmp.converged);
  ASSERT_TRUE(xmvp.converged);
  ASSERT_TRUE(smvp.converged);
  EXPECT_NEAR(fmmp.eigenvalue, smvp.eigenvalue, 1e-11);
  EXPECT_NEAR(xmvp.eigenvalue, smvp.eigenvalue, 1e-11);
  EXPECT_LT(linalg::max_abs_diff(fmmp.concentrations, smvp.eigenvector), 1e-10);
  EXPECT_LT(linalg::max_abs_diff(xmvp.eigenvector, smvp.eigenvector), 1e-10);
}

TEST(Facade, FormulationsYieldTheSameConcentrations) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.04);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 4);

  SolveOptions right;
  right.formulation = core::Formulation::right;
  SolveOptions sym;
  sym.formulation = core::Formulation::symmetric;
  SolveOptions left;
  left.formulation = core::Formulation::left;

  const auto r = solve(model, landscape, right);
  const auto s = solve(model, landscape, sym);
  const auto l = solve(model, landscape, left);
  ASSERT_TRUE(r.converged && s.converged && l.converged);
  EXPECT_NEAR(r.eigenvalue, s.eigenvalue, 1e-10);
  EXPECT_NEAR(r.eigenvalue, l.eigenvalue, 1e-10);
  EXPECT_LT(linalg::max_abs_diff(r.concentrations, s.concentrations), 1e-9);
  EXPECT_LT(linalg::max_abs_diff(r.concentrations, l.concentrations), 1e-9);
}

TEST(Facade, ApproximateXmvpIsCloseButNotExact) {
  const unsigned nu = 10;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 5);

  const auto exact = solve(model, landscape);
  // The paper's tau for d = 5 is 1e-10.
  const auto approx = reference_solve(core::XmvpOperator(model, landscape, 5), model,
                                      landscape, 1e-10);

  ASSERT_TRUE(exact.converged);
  ASSERT_TRUE(approx.converged);
  EXPECT_NEAR(approx.eigenvalue, exact.eigenvalue, 1e-6);
  EXPECT_LT(linalg::max_abs_diff(approx.eigenvector, exact.concentrations), 1e-6);
}

TEST(Facade, EngineOptionGivesSameAnswer) {
  // The engine drives both the product and the power loop's passes; neither
  // changes a bit, so every backend gives the default solve's answer
  // exactly: eigenvalue, iteration count, residual stream, concentrations.
  const auto pool = parallel::make_test_engine(parallel::TestEngine::pool3);
  const std::vector<const parallel::Engine*> engines = {
      &parallel::serial_engine(), &parallel::parallel_engine(), pool.get(),
      &distributed::tree_engine()};
  for (unsigned nu : {9u, 12u, 16u}) {
    const auto model = core::MutationModel::uniform(nu, 0.02);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 6);
    auto run = [&model, &landscape](const parallel::Engine* engine,
                                    std::vector<std::pair<unsigned, double>>& stream) {
      SolveOptions opts;
      opts.engine = engine;
      opts.on_residual = [&stream](unsigned it, double r) { stream.emplace_back(it, r); };
      return solve(model, landscape, opts);
    };
    std::vector<std::pair<unsigned, double>> serial_stream;
    const auto serial = run(nullptr, serial_stream);
    ASSERT_TRUE(serial.converged) << "nu=" << nu;
    for (const parallel::Engine* engine : engines) {
      SCOPED_TRACE(::testing::Message() << "nu=" << nu << " engine=" << engine->name());
      std::vector<std::pair<unsigned, double>> stream;
      const auto result = run(engine, stream);
      EXPECT_EQ(result.eigenvalue, serial.eigenvalue);
      EXPECT_EQ(result.iterations, serial.iterations);
      EXPECT_EQ(stream, serial_stream);
      ASSERT_EQ(result.concentrations.size(), serial.concentrations.size());
      for (std::size_t i = 0; i < serial.concentrations.size(); ++i) {
        ASSERT_EQ(result.concentrations[i], serial.concentrations[i]) << "entry " << i;
      }
    }
  }
}

TEST(Facade, ShiftToggleDoesNotChangeTheAnswer) {
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.05);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7);
  SolveOptions with;
  with.use_shift = true;
  SolveOptions without;
  without.use_shift = false;
  const auto a = solve(model, landscape, with);
  const auto b = solve(model, landscape, without);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_NEAR(a.eigenvalue, b.eigenvalue, 1e-11);
  EXPECT_LE(a.iterations, b.iterations);  // shift can only help
}

TEST(Facade, ClassConcentrationsSumToOne) {
  const auto model = core::MutationModel::uniform(10, 0.02);
  const auto landscape = core::Landscape::random(10, 5.0, 1.0, 8);
  const auto r = solve(model, landscape);
  ASSERT_TRUE(r.converged);
  double s = 0.0;
  for (double c : r.class_concentrations) s += c;
  EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(Facade, RejectsDimensionMismatch) {
  const auto model = core::MutationModel::uniform(5, 0.1);
  const auto landscape = core::Landscape::flat(4, 1.0);
  EXPECT_THROW(solve(model, landscape), precondition_error);
}

TEST(Facade, SparseWOracleMatchesXmvp) {
  // The CSR materialisation and the implicit XOR product are the same
  // truncated matrix, exact at d = nu: through the facade's power iteration
  // they must produce the same solve, and the facade's.
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 9);

  const auto via_xmvp =
      reference_solve(core::XmvpOperator(model, landscape, nu), model, landscape);
  const auto via_sparse =
      reference_solve(sparse::SparseWOperator(model, landscape, nu), model, landscape);
  const auto facade = solve(model, landscape);

  ASSERT_TRUE(via_xmvp.converged);
  ASSERT_TRUE(via_sparse.converged);
  ASSERT_TRUE(facade.converged);
  EXPECT_NEAR(via_xmvp.eigenvalue, via_sparse.eigenvalue, 1e-11);
  EXPECT_LT(linalg::max_abs_diff(via_xmvp.eigenvector, via_sparse.eigenvector), 1e-10);
  EXPECT_NEAR(facade.eigenvalue, via_sparse.eigenvalue, 1e-11);
  EXPECT_LT(linalg::max_abs_diff(facade.concentrations, via_sparse.eigenvector), 1e-10);
}

}  // namespace
}  // namespace qs::solvers
