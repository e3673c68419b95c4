// Unit tests for error-class analysis, sweeps and threshold detection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "analysis/error_classes.hpp"
#include "analysis/sweep.hpp"
#include "analysis/threshold.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::analysis {
namespace {

TEST(ErrorClasses, ConcentrationsPartitionTheTotal) {
  const unsigned nu = 6;
  std::vector<double> x(64);
  for (std::size_t i = 0; i < 64; ++i) x[i] = static_cast<double>(i + 1);
  const auto classes = class_concentrations(nu, x);
  double total_classes = 0.0, total_x = 0.0;
  for (double c : classes) total_classes += c;
  for (double v : x) total_x += v;
  EXPECT_NEAR(total_classes, total_x, 1e-12);
}

TEST(ErrorClasses, BlockedBinningIsBitIdenticalToTheOneElementLoop) {
  // class_concentrations bins 256-element blocks through a low-byte table;
  // each bin must still receive its elements in ascending index order, so
  // every class sum equals the plain loop's bit for bit — on both sides of
  // the block width and for references with bits inside and above it.  The
  // panel form bins every column of an interleaved panel in one pass, with
  // the same promise per column.
  for (unsigned nu : {1u, 7u, 8u, 9u, 18u}) {
    const std::size_t n = sequence_count(nu);
    for (std::size_t m : {1ul, 3ul, 8ul}) {
      std::vector<double> panel(n * m);
      Xoshiro256 rng(nu + 100 * m);
      for (double& v : panel) v = rng.uniform(0.0, 1.0);
      const seq_t top = static_cast<seq_t>(n - 1);
      for (seq_t reference : {seq_t{0}, top, seq_t{0x2D5A5} & top, top / 3}) {
        const auto got = panel_class_concentrations(nu, panel, m, reference);
        ASSERT_EQ(got.size(), m);
        for (std::size_t j = 0; j < m; ++j) {
          std::vector<double> column(n), expected(nu + 1, 0.0);
          for (seq_t i = 0; i < n; ++i) {
            column[i] = panel[i * m + j];
            expected[hamming_distance(i, reference)] += column[i];
          }
          const auto single = class_concentrations(nu, column, reference);
          ASSERT_EQ(got[j].size(), expected.size());
          ASSERT_EQ(single.size(), expected.size());
          for (unsigned k = 0; k <= nu; ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[k]),
                      std::bit_cast<std::uint64_t>(single[k]))
                << "nu=" << nu << " reference=" << reference << " class " << k;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[k]),
                      std::bit_cast<std::uint64_t>(got[j][k]))
                << "nu=" << nu << " m=" << m << " column " << j
                << " reference=" << reference << " class " << k;
          }
        }
      }
    }
  }
}

TEST(ErrorClasses, DeltaVectorLandsInOneClass) {
  const unsigned nu = 5;
  std::vector<double> x(32, 0.0);
  x[0b10110] = 1.0;  // weight 3
  const auto classes = class_concentrations(nu, x);
  for (unsigned k = 0; k <= nu; ++k) {
    EXPECT_DOUBLE_EQ(classes[k], k == 3 ? 1.0 : 0.0);
  }
}

TEST(ErrorClasses, ReferenceShiftsTheClasses) {
  const unsigned nu = 4;
  std::vector<double> x(16, 0.0);
  x[0b1001] = 1.0;
  // Relative to reference 0b1001 the mass is at distance 0.
  const auto classes = class_concentrations(nu, x, 0b1001);
  EXPECT_DOUBLE_EQ(classes[0], 1.0);
}

TEST(ErrorClasses, CardinalitiesAreBinomials) {
  const auto card = class_cardinalities(5);
  const double expected[] = {1, 5, 10, 10, 5, 1};
  for (unsigned k = 0; k <= 5; ++k) EXPECT_DOUBLE_EQ(card[k], expected[k]);
}

TEST(ErrorClasses, UniformConcentrationsSumToOne) {
  const auto u = uniform_class_concentrations(20);
  double s = 0.0;
  for (double v : u) s += v;
  EXPECT_NEAR(s, 1.0, 1e-12);
  EXPECT_NEAR(u[0], 1.0 / 1048576.0, 1e-18);
}

TEST(ErrorClasses, MembersHaveRightDistanceAndCount) {
  const auto members = class_members(6, 2, 0b000111);
  EXPECT_EQ(members.size(), 15u);  // C(6,2)
  for (seq_t m : members) {
    EXPECT_EQ(hamming_distance(m, 0b000111), 2u);
  }
}

TEST(ErrorClasses, EntropyLimits) {
  std::vector<double> uniform(16, 1.0 / 16.0);
  EXPECT_NEAR(population_entropy(uniform), std::log(16.0), 1e-12);
  std::vector<double> point(16, 0.0);
  point[3] = 1.0;
  EXPECT_DOUBLE_EQ(population_entropy(point), 0.0);
}

TEST(Sweep, GridGeneration) {
  const auto grid = error_rate_grid(0.01, 0.05, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.01);
  EXPECT_DOUBLE_EQ(grid.back(), 0.05);
  EXPECT_NEAR(grid[1] - grid[0], 0.01, 1e-15);
  EXPECT_THROW(error_rate_grid(0.0, 0.1, 3), qs::precondition_error);
  EXPECT_THROW(error_rate_grid(0.1, 0.6, 3), qs::precondition_error);
  EXPECT_THROW(error_rate_grid(0.01, 0.05, 1), qs::precondition_error);
}

TEST(Sweep, ReducedAndFullSweepsAgree) {
  const unsigned nu = 8;
  const auto ecl = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);
  const auto grid = error_rate_grid(0.01, 0.09, 5);

  const auto reduced = sweep_error_rates(ecl, grid);
  const auto full = sweep_error_rates(ecl.expand(), grid);

  ASSERT_EQ(reduced.error_rates.size(), full.error_rates.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(reduced.eigenvalues[i], full.eigenvalues[i], 1e-8);
    for (unsigned k = 0; k <= nu; ++k) {
      EXPECT_NEAR(reduced.class_concentrations[i][k],
                  full.class_concentrations[i][k], 1e-7)
          << "p=" << grid[i] << " k=" << k;
    }
  }
}

TEST(Sweep, EigenvalueDecreasesWithErrorRateOnSinglePeak) {
  // More mutation spreads mass off the peak: the mean fitness at the
  // stationary state decreases monotonically.
  const auto ecl = core::ErrorClassLandscape::single_peak(12, 2.0, 1.0);
  const auto grid = error_rate_grid(0.005, 0.1, 12);
  const auto sweep = sweep_error_rates(ecl, grid);
  for (std::size_t i = 1; i < sweep.eigenvalues.size(); ++i) {
    EXPECT_LT(sweep.eigenvalues[i], sweep.eigenvalues[i - 1] + 1e-12);
  }
}

TEST(Sweep, CsvOutputHasHeaderAndRows) {
  const auto ecl = core::ErrorClassLandscape::single_peak(4, 2.0, 1.0);
  const auto grid = error_rate_grid(0.01, 0.03, 3);
  const auto sweep = sweep_error_rates(ecl, grid);
  std::ostringstream out;
  write_sweep_csv(sweep, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("p,G0,G1,G2,G3,G4,eigenvalue"), std::string::npos);
  // Header + three data rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Threshold, UniformityDistanceZeroForUniform) {
  const unsigned nu = 10;
  EXPECT_NEAR(uniformity_distance(nu, uniform_class_concentrations(nu)), 0.0, 1e-15);
}

TEST(Threshold, SinglePeakNu20MatchesPaperFigureOne) {
  // Figure 1 (left): nu = 20, f0 = 2, rest 1 -> p_max ~ 0.035.
  const auto ecl = core::ErrorClassLandscape::single_peak(20, 2.0, 1.0);
  const auto pmax = find_error_threshold(ecl);
  ASSERT_TRUE(pmax.has_value());
  EXPECT_GT(*pmax, 0.02);
  EXPECT_LT(*pmax, 0.05);
}

TEST(Threshold, KinkSeparatesPeakFromLinear) {
  // Figure 1: the single peak has a genuine phase transition at p_max — a
  // slope discontinuity (kink) of the order parameter — while the linear
  // landscape approaches the uniform distribution with a continuous
  // derivative. The kink statistic must separate the regimes clearly.
  const unsigned nu = 20;
  const auto peak = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);
  const auto linear = core::ErrorClassLandscape::linear(nu, 2.0, 1.0);
  const double k_peak = transition_kink(peak, 0.005, 0.09);
  const double k_linear = transition_kink(linear, 0.005, 0.09);
  EXPECT_GT(k_peak, 3.0 * k_linear);
}

TEST(Threshold, SharpnessIsPositiveAndFiniteForBothRegimes) {
  const unsigned nu = 16;
  const auto peak = core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0);
  const double s = transition_sharpness(peak, 0.005, 0.09);
  EXPECT_GT(s, 0.0);
  EXPECT_TRUE(std::isfinite(s));
}

TEST(Threshold, KinkRejectsBadArguments) {
  const auto ecl = core::ErrorClassLandscape::single_peak(8, 2.0, 1.0);
  EXPECT_THROW(transition_kink(ecl, 0.1, 0.01), qs::precondition_error);
  EXPECT_THROW(transition_kink(ecl, 0.01, 0.1, 2), qs::precondition_error);
}

TEST(Threshold, FlatLandscapeIsAlwaysUniform) {
  // Equal fitness: the quasispecies is uniform for every p, so there is no
  // ordered phase and no threshold.
  const auto flat = core::ErrorClassLandscape::from_values(8, std::vector<double>(9, 1.0));
  const auto pmax = find_error_threshold(flat);
  EXPECT_FALSE(pmax.has_value());
}

TEST(Threshold, RejectsBadBracket) {
  const auto ecl = core::ErrorClassLandscape::single_peak(8, 2.0, 1.0);
  ThresholdOptions bad;
  bad.p_lo = 0.2;
  bad.p_hi = 0.1;
  EXPECT_THROW(find_error_threshold(ecl, bad), qs::precondition_error);
}

}  // namespace
}  // namespace qs::analysis
