// Tests for core/planned_operator: the one-stop execution object that owns
// the FmmpOperator, the tiling plan (fixed or autotuned), and the scratch
// workspace the solver loops draw from.
//
// The numerical contract is transparency: a PlannedOperator built with the
// defaults computes bit-for-bit what a bare FmmpOperator computes, and the
// autotuned variant computes bit-for-bit what a bare FmmpOperator with the
// winning plan computes (the banded butterfly's arithmetic per element does
// not depend on the tiling).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/planned_operator.hpp"
#include "core/workspace.hpp"

namespace qs::core {
namespace {

MutationModel test_model() { return MutationModel::uniform(8, 0.02); }
Landscape test_landscape() { return Landscape::random(8, 4.0, 1.0, 11); }

std::vector<double> test_vector(std::size_t n, std::size_t m = 1) {
  std::vector<double> x(n * m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.125 * static_cast<double>(i % 17);
  }
  return x;
}

TEST(PlannedOperatorTest, DefaultApplyMatchesABareFmmpOperatorBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  const PlannedOperator planned(model, fitness);
  const FmmpOperator bare(model, fitness);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const auto x = test_vector(n);
  std::vector<double> y_planned(n), y_bare(n);
  planned.apply(x, y_planned);
  bare.apply(x, y_bare);

  ASSERT_EQ(y_planned, y_bare);
  EXPECT_FALSE(planned.autotune_report().has_value());
}

TEST(PlannedOperatorTest, SymmetricPanelApplyMatchesBitForBit) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  PlannedOperatorConfig config;
  config.formulation = Formulation::symmetric;
  const PlannedOperator planned(model, fitness, config);
  const FmmpOperator bare(model, fitness, Formulation::symmetric);
  EXPECT_EQ(planned.fmmp().formulation(), Formulation::symmetric);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const std::size_t m = 4;
  const auto x = test_vector(n, m);
  std::vector<double> y_planned(n * m), y_bare(n * m);
  planned.apply_panel(x, y_planned, m);
  bare.apply_panel(x, y_bare, m);

  ASSERT_EQ(y_planned, y_bare);
}

TEST(PlannedOperatorTest, AutotuneRetainsTheReportAndStaysTransparent) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  PlannedOperatorConfig config;
  config.autotune = true;
  const PlannedOperator planned(model, fitness, config);

  ASSERT_TRUE(planned.autotune_report().has_value());
  const auto& report = *planned.autotune_report();
  ASSERT_FALSE(report.timings.empty());
  EXPECT_EQ(planned.plan().tile_log2, report.best.tile_log2);
  EXPECT_EQ(planned.plan().chunk_log2, report.best.chunk_log2);

  // Whatever plan won, the product is the same arithmetic: a bare operator
  // handed the winning plan computes identical bits.
  const FmmpOperator bare(model, fitness, Formulation::right, nullptr,
                          planned.plan());
  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  const auto x = test_vector(n);
  std::vector<double> y_planned(n), y_bare(n);
  planned.apply(x, y_planned);
  bare.apply(x, y_bare);
  ASSERT_EQ(y_planned, y_bare);
}

TEST(PlannedOperatorTest, WorkspaceSlotsAreStableAndGrowOnly) {
  Workspace workspace;
  const auto a = workspace.take(Workspace::Slot::product, 100);
  ASSERT_EQ(a.size(), 100u);
  a[0] = 42.0;

  // A smaller take on the same slot reuses the same backing buffer.
  const auto b = workspace.take(Workspace::Slot::product, 50);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b[0], 42.0);

  // Distinct slots are distinct buffers.
  const auto c = workspace.take(Workspace::Slot::recurrence, 100);
  EXPECT_NE(c.data(), a.data());

  // Growth never shrinks: bytes() is monotone across takes.
  const std::size_t before = workspace.bytes();
  const auto d = workspace.take(Workspace::Slot::product, 200);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_GE(workspace.bytes(), before);
  workspace.take(Workspace::Slot::product, 10);
  EXPECT_GE(workspace.bytes(), before);

  // Any slot index is valid, including the highest named one.
  const auto e = workspace.take(Workspace::Slot::family_iterate, 8);
  EXPECT_EQ(e.size(), 8u);
}

TEST(PlannedOperatorTest, WorkspaceIsSharedAcrossRepeatedTakes) {
  const auto model = test_model();
  const auto fitness = test_landscape();
  const PlannedOperator planned(model, fitness);

  const std::size_t n = static_cast<std::size_t>(planned.dimension());
  Workspace& workspace = planned.workspace();
  const auto first = workspace.take(Workspace::Slot::product, n);
  const auto second = workspace.take(Workspace::Slot::product, n);
  EXPECT_EQ(first.data(), second.data());
  EXPECT_GE(workspace.bytes(), n * sizeof(double));
}

}  // namespace
}  // namespace qs::core
