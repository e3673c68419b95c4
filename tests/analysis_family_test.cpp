// Landscape-family solves (analysis::sweep_landscape_family): the batched
// panel power iteration must reproduce the per-landscape facade — a
// one-column family bit for bit, since both run solvers::run_power_loop —
// give the serial bits on every engine (its check passes are tree-ordered
// per column and fanned out in aligned blocks), keep unnormalised iterates
// finite through the forced renormalisations, and report the last check's
// answer when cancelled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "analysis/error_classes.hpp"
#include "analysis/sweep.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "distributed/reduction.hpp"
#include "linalg/dense_matrix.hpp"
#include "parallel/engine.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "test_engines.hpp"

namespace qs {
namespace {

/// Every field of two family results, bit for bit.
void expect_same_bits(const analysis::FamilyResult& a,
                      const analysis::FamilyResult& b) {
  EXPECT_EQ(a.panel_products, b.panel_products);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.eigenvalues, b.eigenvalues);
  EXPECT_EQ(a.residuals, b.residuals);
  EXPECT_EQ(a.eigenvectors, b.eigenvectors);
}

/// Each landscape's family answer against the facade's shifted power
/// iteration on the same model.
void expect_matches_facade(const core::MutationModel& model,
                           const std::vector<core::Landscape>& family,
                           const analysis::FamilyResult& r, double tol) {
  for (std::size_t j = 0; j < family.size(); ++j) {
    const auto single = solvers::solve(model, family[j], solvers::SolveOptions{});
    ASSERT_TRUE(single.converged);
    EXPECT_NEAR(r.eigenvalues[j], single.eigenvalue, tol * single.eigenvalue)
        << "landscape " << j;
    for (std::size_t i = 0; i < single.concentrations.size(); ++i) {
      EXPECT_NEAR(r.eigenvectors[j][i], single.concentrations[i], tol)
          << "landscape " << j << " entry " << i;
    }
  }
}

TEST(LandscapeFamily, BatchedSolveMatchesPerLandscapeFacade) {
  const unsigned nu = 6;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const std::vector<core::Landscape> family = {
      core::Landscape::single_peak(nu, 2.0, 1.0),
      core::Landscape::linear(nu, 2.0, 1.0),
      core::Landscape::random(nu, 5.0, 1.0, 17)};

  analysis::FamilyOptions fopts;
  fopts.tolerance = 1e-12;
  const auto batched = analysis::sweep_landscape_family(model, family, fopts);
  ASSERT_TRUE(batched.converged);
  ASSERT_EQ(batched.eigenvalues.size(), family.size());

  for (std::size_t j = 0; j < family.size(); ++j) {
    solvers::SolveOptions opts;
    opts.use_shift = false;
    const auto single = solvers::solve(model, family[j], opts);
    ASSERT_TRUE(single.converged);
    EXPECT_NEAR(batched.eigenvalues[j], single.eigenvalue,
                1e-9 * single.eigenvalue)
        << "landscape " << j;
    for (std::size_t i = 0; i < single.concentrations.size(); ++i) {
      EXPECT_NEAR(batched.eigenvectors[j][i], single.concentrations[i], 1e-8)
          << "landscape " << j << " entry " << i;
    }
  }
}

TEST(LandscapeFamily, OneColumnIsTheFacadeBitForBit) {
  // A one-column family is the facade's unshifted power iteration with the
  // family's check cadence: same start, same stretches between checks,
  // same stopping rule, so every output bit agrees.
  for (const unsigned nu : {6u, 10u}) {
    const auto model = core::MutationModel::uniform(nu, 0.01);
    const core::Landscape landscapes[] = {
        core::Landscape::single_peak(nu, 2.0, 1.0), core::Landscape::linear(nu, 2.0, 1.0),
        core::Landscape::random(nu, 5.0, 1.0, 23), core::Landscape::flat(nu, 1.5)};
    for (const core::Landscape& landscape : landscapes) {
      SCOPED_TRACE(testing::Message() << "nu " << nu << " landscape " << &landscape - landscapes);
      analysis::FamilyOptions fopts;
      fopts.tolerance = 1e-12;
      const auto family = analysis::sweep_landscape_family(
          model, std::span<const core::Landscape>(&landscape, 1), fopts);

      solvers::SolveOptions opts;
      opts.use_shift = false;
      opts.residual_check_every = 8;
      opts.tolerance = fopts.tolerance;
      const auto single = solvers::solve(model, landscape, opts);
      ASSERT_TRUE(single.converged);
      EXPECT_EQ(family.converged, single.converged);
      EXPECT_EQ(family.panel_products, single.iterations);
      EXPECT_EQ(family.eigenvalues[0], single.eigenvalue);
      EXPECT_EQ(family.residuals[0], single.residual);
      EXPECT_EQ(family.eigenvectors[0], single.concentrations);
    }
  }
}

TEST(LandscapeFamily, GroupedModelAndBackendsAgree) {
  // The family path also covers grouped Q (scaling sweeps + banded grouped
  // kernel) and every backend, bit for bit.
  const unsigned nu = 6;
  std::vector<linalg::DenseMatrix> groups;
  for (unsigned g = 0; g < 3; ++g) {
    linalg::DenseMatrix f(4, 4);
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t r = 0; r < 4; ++r) f(r, c) = r == c ? 0.91 : 0.03;
    }
    groups.push_back(std::move(f));
  }
  const auto model = core::MutationModel::grouped(groups);
  ASSERT_EQ(model.nu(), nu);
  const std::vector<core::Landscape> family = {
      core::Landscape::single_peak(nu, 3.0, 1.0),
      core::Landscape::random(nu, 5.0, 1.0, 29)};

  analysis::FamilyOptions fopts;
  fopts.tolerance = 1e-12;
  const auto reference = analysis::sweep_landscape_family(model, family, fopts);
  ASSERT_TRUE(reference.converged);
  expect_matches_facade(model, family, reference, 1e-9);

  for (parallel::TestEngine kind : parallel::kTestEngines) {
    const auto engine = parallel::make_test_engine(kind);
    SCOPED_TRACE(engine->name());
    fopts.engine = engine.get();
    expect_same_bits(analysis::sweep_landscape_family(model, family, fopts),
                     reference);
  }
  fopts.engine = &distributed::tree_engine();
  expect_same_bits(analysis::sweep_landscape_family(model, family, fopts),
                   reference);
}

TEST(LandscapeFamily, PanelGammaIsEachEigenvectorsClassConcentrations) {
  // The panel-level result reads every column's [Gamma_k] off the iterate
  // panel; each must be class_concentrations of the de-interleaved
  // eigenvector bit for bit, at every width and for the grouped kind, and
  // the two result shapes must report the same solve.
  const unsigned nu = 9;
  std::vector<linalg::DenseMatrix> groups;
  for (unsigned g = 0; g < 3; ++g) {
    linalg::DenseMatrix f(8, 8);
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t r = 0; r < 8; ++r) f(r, c) = r == c ? 0.93 : 0.01;
    }
    groups.push_back(std::move(f));
  }
  struct Case {
    core::MutationModel model;
    std::size_t m;
  };
  const Case cases[] = {{core::MutationModel::uniform(nu, 0.01), 1},
                        {core::MutationModel::uniform(nu, 0.01), 3},
                        {core::MutationModel::uniform(nu, 0.01), 8},
                        {core::MutationModel::grouped(groups), 3}};
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "m " << c.m << " grouped "
                                      << (c.model.kind() == core::MutationKind::grouped));
    ASSERT_EQ(c.model.nu(), nu);
    std::vector<core::Landscape> family;
    for (std::size_t j = 0; j < c.m; ++j) {
      family.push_back(core::Landscape::random(nu, 5.0, 1.0, 70 + j));
    }
    analysis::FamilyOptions options;
    options.tolerance = 1e-11;
    const analysis::FamilyPanel panel =
        analysis::solve_landscape_family(c.model, family, options);
    const analysis::FamilyResult result =
        analysis::sweep_landscape_family(c.model, family, options);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(panel.panel_products, result.panel_products);
    EXPECT_EQ(panel.eigenvalues, result.eigenvalues);
    EXPECT_EQ(panel.residuals, result.residuals);
    ASSERT_EQ(panel.width(), c.m);
    const auto classes = panel.class_concentrations();
    ASSERT_EQ(classes.size(), c.m);
    for (std::size_t j = 0; j < c.m; ++j) {
      const auto expected = analysis::class_concentrations(nu, result.eigenvectors[j]);
      ASSERT_EQ(classes[j].size(), expected.size());
      for (std::size_t k = 0; k <= nu; ++k) {
        EXPECT_EQ(std::memcmp(&classes[j][k], &expected[k], sizeof(double)), 0)
            << "column " << j << " class " << k;
      }
      for (std::size_t i = 0; i < result.eigenvectors[j].size(); ++i) {
        ASSERT_EQ(panel.panel()[i * c.m + j], result.eigenvectors[j][i]);
      }
    }
  }
}

TEST(LandscapeFamily, FourBlockFanOutGivesTheSerialBits) {
  // nu = 14 on a four-lane pool splits both check passes into four aligned
  // row blocks (2^12 rows each, at the fan-out's minimum); their per-column
  // partials must combine to exactly the one-block sums, at the SIMD-panel
  // width m = 8, the single-vector width m = 1 and a ragged width m = 3.
  const unsigned nu = 14;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const parallel::ThreadPoolBackend pool(4);
  ASSERT_EQ(pool.concurrency(), 4u);
  for (const std::size_t m : {std::size_t{8}, std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(m);
    std::vector<core::Landscape> family;
    for (std::size_t j = 0; j < m; ++j) {
      family.push_back(core::Landscape::random(nu, 5.0, 1.0, 100 + j));
    }
    analysis::FamilyOptions fopts;
    fopts.tolerance = 1e-11;
    const auto serial = analysis::sweep_landscape_family(model, family, fopts);
    ASSERT_TRUE(serial.converged);
    for (const parallel::Engine* engine :
         {static_cast<const parallel::Engine*>(&pool), &distributed::tree_engine()}) {
      SCOPED_TRACE(engine->name());
      fopts.engine = engine;
      expect_same_bits(analysis::sweep_landscape_family(model, family, fopts),
                       serial);
    }
  }
}

TEST(LandscapeFamily, ForcedRenormalisationKeepsUnnormalisedIteratesFinite) {
  // Fitness spanning [2^-40, 2^40] allows one product between
  // renormalisations (64 / 40 < 2), so every product renormalises, while
  // only every 1000th may end the solve.  Without the bound the growing
  // column would overflow within ~26 products and the shrinking one
  // underflow to subnormals.  The second family (fitness in [1, 2^16])
  // renormalises every fourth product between checks every tenth.
  const unsigned nu = 6;
  const std::size_t n = std::size_t{1} << nu;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  std::vector<double> wide(n), tiny(n), huge(n), ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    wide[i] = std::ldexp(1.0, static_cast<int>(std::lround(80.0 * t)) - 40);
    tiny[i] = std::ldexp(1.0 + t, -40);
    huge[i] = std::ldexp(2.0 - t, 39);
    ramp[i] = std::ldexp(1.0, static_cast<int>(16.0 * t));
  }
  const struct {
    std::vector<core::Landscape> family;
    unsigned check_every;
  } cases[] = {{{core::Landscape::from_values(nu, wide),
                 core::Landscape::from_values(nu, tiny),
                 core::Landscape::from_values(nu, huge)},
                1000},
               {{core::Landscape::from_values(nu, ramp),
                 core::Landscape::random(nu, 5.0, 1.0, 3)},
                10}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.check_every);
    analysis::FamilyOptions fopts;
    fopts.tolerance = 1e-12;
    fopts.residual_check_every = c.check_every;
    const auto r = analysis::sweep_landscape_family(model, c.family, fopts);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.panel_products % c.check_every, 0u);
    for (const std::vector<double>& v : r.eigenvectors) {
      double sum = 0.0;
      for (double e : v) {
        ASSERT_TRUE(std::isfinite(e));
        ASSERT_NE(std::fpclassify(e), FP_SUBNORMAL);
        ASSERT_GT(e, 0.0);
        sum += e;
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
    expect_matches_facade(model, c.family, r, 1e-9);
  }
}

TEST(LandscapeFamily, CancelledSolveReportsTheLastCheck) {
  // Cancelled after 12 products with checks every 8th: the eigenvalues and
  // residuals are exactly those of a solve that stopped at product 8, and
  // the eigenvectors are the current iterate, 1-norm normalised.
  const unsigned nu = 8;
  const auto model = core::MutationModel::uniform(nu, 0.02);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(m);
    std::vector<core::Landscape> family;
    for (std::size_t j = 0; j < m; ++j) {
      family.push_back(core::Landscape::random(nu, 5.0, 1.0, 7 + j));
    }
    analysis::FamilyOptions fopts;
    fopts.tolerance = 0.0;
    fopts.max_iterations = 8;
    const auto at_check = analysis::sweep_landscape_family(model, family, fopts);
    ASSERT_EQ(at_check.panel_products, 8u);
    ASSERT_FALSE(at_check.converged);

    unsigned polls = 0;
    fopts.max_iterations = 1000;
    fopts.should_stop = [&polls] { return ++polls > 12; };
    const auto cancelled = analysis::sweep_landscape_family(model, family, fopts);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_FALSE(cancelled.converged);
    EXPECT_EQ(cancelled.panel_products, 12u);
    EXPECT_EQ(cancelled.eigenvalues, at_check.eigenvalues);
    EXPECT_EQ(cancelled.residuals, at_check.residuals);
    for (const std::vector<double>& v : cancelled.eigenvectors) {
      double sum = 0.0;
      for (double e : v) sum += e;
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

}  // namespace
}  // namespace qs
