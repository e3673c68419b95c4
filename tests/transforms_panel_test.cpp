// Equivalence tests for the multi-vector (panel) kernels: the interleaved
// panel butterfly and its fused scalings (broadcast, and per column read
// through column pointers) run the
// single-vector span-kernel table, so every column must be BIT-IDENTICAL to
// the single-vector product of that column across every engine backend,
// panel width (SIMD-divisible and tail cases), kernel tier and tiling plan.
// The group-banded Kronecker kernel must match its serial reference.
#include "transforms/panel_butterfly.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "parallel/engine.hpp"
#include "reference/kronecker.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/butterfly.hpp"
#include "transforms/kronecker.hpp"
#include "transforms/sv_microkernel.hpp"
#include "test_engines.hpp"

namespace qs::transforms {
namespace {

constexpr double kTol = 1e-14;

// Panel widths covering every microkernel regime: scalar (1), below SIMD
// width (2, 3), exactly SIMD width (4), SIMD width + tail (5), two SIMD
// lanes (8).
const std::initializer_list<std::size_t> kWidths = {1, 2, 3, 4, 5, 8};

std::vector<Factor2> asymmetric_factors(unsigned nu, std::uint64_t seed) {
  std::vector<Factor2> sites;
  sites.reserve(nu);
  Xoshiro256 rng(seed);
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(Factor2::asymmetric(rng.uniform(0.001, 0.4), rng.uniform(0.001, 0.4)));
  }
  return sites;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<double> positive_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(0.5, 2.0);
  return v;
}

void expect_near_all(const std::vector<double>& expected,
                     const std::vector<double>& actual, double tol) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], tol) << "index " << i;
  }
}

void expect_bitwise(const std::vector<double>& expected,
                    const std::vector<double>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " index " << i;
  }
}

// Every SvKernel choice that resolves to its own table on this build/CPU:
// scalar plus each available SIMD tier.
std::vector<SvKernel> resolvable_tiers() {
  std::vector<SvKernel> tiers = {SvKernel::scalar};
  if (avx2_sv_kernels() != nullptr) tiers.push_back(SvKernel::avx2);
  if (avx512_sv_kernels() != nullptr) tiers.push_back(SvKernel::avx512);
  return tiers;
}

/// How the test scales a panel: no diagonals, one length-N pre- and
/// post-scale shared by all columns, or each column its own pre-scale (m
/// column pointers).
enum class Scaling { none, broadcast, per_column };

TEST(PanelButterfly, MatchesSingleVectorAcrossBackendsWidthsAndNu) {
  // One kernel table: every column of an m-wide fused product must be the
  // single-vector fused apply of that column, byte for byte — for every
  // width (below, at and past each SIMD width, and the wide m = 16 sweep),
  // every scaling mode, every engine and every kernel tier.
  for (unsigned nu : {1u, 3u, 5u, 9u, 12u, 14u, 16u}) {
    const std::size_t n = std::size_t{1} << nu;
    const auto factors = asymmetric_factors(nu, nu);
    const auto pre_diag = positive_vector(n, 10 + nu);
    const auto post_diag = positive_vector(n, 20 + nu);
    for (std::size_t m : {2ul, 3ul, 5ul, 8ul, 16ul}) {
      std::vector<std::vector<double>> columns(m), pres(m);
      std::vector<const double*> pre_columns(m);
      std::vector<double> panel(n * m);
      for (std::size_t j = 0; j < m; ++j) {
        columns[j] = random_vector(n, 100 * nu + j);
        pres[j] = positive_vector(n, 300 * nu + j);
        pack_panel_column(columns[j], panel, m, j);
        pre_columns[j] = pres[j].data();
      }
      for (Scaling scaling :
           {Scaling::none, Scaling::broadcast, Scaling::per_column}) {
        std::span<const double> pre, post;
        if (scaling == Scaling::broadcast) {
          pre = pre_diag;
          post = post_diag;
        }
        for (SvKernel tier : resolvable_tiers()) {
          BlockedPlan plan;
          plan.sv_kernel = tier;
          std::vector<std::vector<double>> reference(m, std::vector<double>(n));
          for (std::size_t j = 0; j < m; ++j) {
            std::span<const double> col_pre, col_post;
            if (scaling == Scaling::broadcast) {
              col_pre = pre_diag;
              col_post = post_diag;
            } else if (scaling == Scaling::per_column) {
              col_pre = pres[j];
            }
            apply_blocked_butterfly_fused(columns[j], reference[j], factors,
                                          col_pre, col_post,
                                          parallel::serial_engine(), plan);
          }
          for (parallel::TestEngine kind : parallel::kTestEngines) {
            SCOPED_TRACE(::testing::Message()
                         << "nu=" << nu << " m=" << m << " scaling="
                         << static_cast<int>(scaling) << " tier="
                         << to_string(tier) << " backend="
                         << static_cast<int>(kind));
            const auto engine = parallel::make_test_engine(kind);
            std::vector<double> out(n * m);
            if (scaling == Scaling::per_column) {
              apply_blocked_panel_butterfly_columns(panel, out, m, factors,
                                                    pre_columns, *engine, plan);
            } else {
              apply_blocked_panel_butterfly_fused(panel, out, m, factors, pre,
                                                  post, *engine, plan);
            }
            std::vector<double> column(n);
            for (std::size_t j = 0; j < m; ++j) {
              unpack_panel_column(out, m, j, column);
              ASSERT_EQ(std::memcmp(reference[j].data(), column.data(),
                                    n * sizeof(double)),
                        0)
                  << "column " << j;
            }
          }
        }
      }
    }
  }
}

TEST(PanelButterfly, WidthOneMatchesBlockedButterfly) {
  // m = 1 is a single vector by structure: the panel entry point runs the
  // single-vector banded kernel under the same plan, so on every sv tier
  // the results are bit-identical — plain and with fused broadcast
  // scalings (length N, i.e. one column's diagonal), out-of-place and
  // exactly aliased.
  const unsigned nu = 12;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 7);
  const auto x = random_vector(n, 7);
  const auto pre = positive_vector(n, 8);
  const auto post = positive_vector(n, 9);
  const auto& engine = parallel::serial_engine();
  for (SvKernel tier : {SvKernel::automatic, SvKernel::scalar, SvKernel::avx2,
                        SvKernel::avx512}) {
    SCOPED_TRACE(to_string(tier));
    BlockedPlan plan;
    plan.sv_kernel = tier;
    std::vector<double> single = x;
    std::vector<double> panel = x;
    apply_blocked_butterfly(single, factors, engine, plan);
    apply_blocked_panel_butterfly(panel, 1, factors, engine, plan);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(single[i], panel[i]) << "index " << i;
    }

    std::vector<double> fused_single(n);
    std::vector<double> fused_panel(n);
    apply_blocked_butterfly_fused(x, fused_single, factors, pre, post, engine,
                                  plan);
    apply_blocked_panel_butterfly_fused(x, fused_panel, 1, factors, pre, post,
                                        engine, plan);
    std::vector<double> fused_in_place = x;
    apply_blocked_panel_butterfly_fused(fused_in_place, fused_in_place, 1,
                                        factors, pre, post, engine, plan);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fused_single[i], fused_panel[i]) << "fused index " << i;
      ASSERT_EQ(fused_single[i], fused_in_place[i]) << "in-place index " << i;
    }
  }
}

TEST(PanelButterfly, FusedBroadcastScalingsMatchSingleVectorFused) {
  const unsigned nu = 11;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 21);
  const auto pre = positive_vector(n, 1);
  const auto post = positive_vector(n, 2);
  for (std::size_t m : kWidths) {
    std::vector<std::vector<double>> reference(m);
    std::vector<double> panel(n * m);
    for (std::size_t j = 0; j < m; ++j) {
      const auto x = random_vector(n, 40 + j);
      pack_panel_column(x, panel, m, j);
      reference[j].resize(n);
      apply_blocked_butterfly_fused(x, reference[j], factors, pre, post,
                                    parallel::serial_engine());
    }
    for (parallel::TestEngine kind : parallel::kTestEngines) {
      const auto engine = parallel::make_test_engine(kind);
      std::vector<double> out(n * m);
      apply_blocked_panel_butterfly_fused(panel, out, m, factors, pre, post,
                                          *engine);
      std::vector<double> in_place = panel;
      apply_blocked_panel_butterfly_fused(in_place, in_place, m, factors, pre,
                                          post, *engine);
      std::vector<double> column(n);
      for (std::size_t j = 0; j < m; ++j) {
        unpack_panel_column(out, m, j, column);
        expect_bitwise(reference[j], column, "broadcast column");
        unpack_panel_column(in_place, m, j, column);
        expect_bitwise(reference[j], column, "broadcast in-place column");
      }
    }
  }
}

TEST(PanelButterfly, PerColumnScalingsGiveEachColumnItsOwnDiagonal) {
  // The landscape family's product W_j = Q D_j: each column pre-scaled by
  // its own diagonal, read in place through a column pointer.  On every
  // table, nu = 1..12 (one band and several, a tile shorter than the SIMD
  // transpose's rows included), widths that run the transpose whole (8,
  // 16), not at all (2, 3) and in part, in place and out of place, on every
  // engine: each column is the single-vector product Q (D_j x_j), bit for
  // bit.
  for (SvKernel tier : resolvable_tiers()) {
    BlockedPlan plan;
    plan.sv_kernel = tier;
    for (unsigned nu = 1; nu <= 12; ++nu) {
      const std::size_t n = std::size_t{1} << nu;
      const auto factors = asymmetric_factors(nu, 40 + nu);
      for (std::size_t m : {2ul, 3ul, 8ul, 16ul}) {
        std::vector<std::vector<double>> diagonals(m), reference(m);
        std::vector<const double*> pre_columns(m);
        std::vector<double> panel(n * m);
        for (std::size_t j = 0; j < m; ++j) {
          diagonals[j] = positive_vector(n, 700 * nu + j);
          pre_columns[j] = diagonals[j].data();
          const auto x = random_vector(n, 900 * nu + j);
          pack_panel_column(x, panel, m, j);
          reference[j].resize(n);
          apply_blocked_butterfly_fused(x, reference[j], factors, diagonals[j], {},
                                        parallel::serial_engine(), plan);
        }
        for (parallel::TestEngine kind : parallel::kTestEngines) {
          SCOPED_TRACE(::testing::Message()
                       << "tier=" << to_string(tier) << " nu=" << nu << " m=" << m
                       << " engine=" << parallel::test_engine_name(kind));
          const auto engine = parallel::make_test_engine(kind);
          std::vector<double> out(n * m);
          apply_blocked_panel_butterfly_columns(panel, out, m, factors, pre_columns,
                                                *engine, plan);
          std::vector<double> in_place = panel;
          apply_blocked_panel_butterfly_columns(in_place, in_place, m, factors,
                                                pre_columns, *engine, plan);
          std::vector<double> column(n);
          for (std::size_t j = 0; j < m; ++j) {
            unpack_panel_column(out, m, j, column);
            expect_bitwise(reference[j], column, "out of place column");
            unpack_panel_column(in_place, m, j, column);
            expect_bitwise(reference[j], column, "in place column");
          }
        }
      }
    }
  }
}

TEST(PanelButterfly, ColumnScalingsRejectAWrongColumnCount) {
  const unsigned nu = 4;
  const std::size_t n = std::size_t{1} << nu, m = 3;
  const auto factors = asymmetric_factors(nu, 6);
  const auto diagonal = positive_vector(n, 7);
  const std::vector<const double*> two = {diagonal.data(), diagonal.data()};
  std::vector<double> panel(n * m, 1.0);
  EXPECT_ANY_THROW(apply_blocked_panel_butterfly_columns(panel, panel, m, factors, two,
                                                        parallel::serial_engine()));
  // A length N*m span is no longer a per-column scaling.
  const std::vector<double> interleaved(n * m, 1.0);
  EXPECT_ANY_THROW(apply_blocked_panel_butterfly_fused(
      panel, panel, m, factors, interleaved, {}, parallel::serial_engine()));
}

TEST(PanelButterfly, PlanVariationsAllAgree) {
  // Different tilings change the sweep order, never the bits.
  const unsigned nu = 12;
  const std::size_t n = std::size_t{1} << nu;
  const std::size_t m = 4;
  const auto factors = asymmetric_factors(nu, 3);
  std::vector<double> base(n * m);
  for (std::size_t j = 0; j < m; ++j) {
    pack_panel_column(random_vector(n, 60 + j), base, m, j);
  }
  std::vector<double> reference = base;
  apply_blocked_panel_butterfly(reference, m, factors, parallel::serial_engine());
  for (const BlockedPlan plan : {BlockedPlan{4, 2}, BlockedPlan{6, 3},
                                 BlockedPlan{9, 5}, BlockedPlan{20, 6}}) {
    std::vector<double> work = base;
    apply_blocked_panel_butterfly(work, m, factors, parallel::serial_engine(),
                                  plan);
    expect_bitwise(reference, work, "plan variation");
  }
}

TEST(PanelButterfly, PanelPlanShrinksTileOnlyForWidePanels) {
  // Panels up to m = 8 keep the full tile (the default tile is small
  // relative to L2, and fewer bands = fewer panel passes); wider panels
  // shrink by ceil(log2(m)) - 3.
  const BlockedPlan base{14, 6};
  EXPECT_EQ(panel_plan(base, 1).tile_log2, 14u);
  EXPECT_EQ(panel_plan(base, 2).tile_log2, 14u);
  EXPECT_EQ(panel_plan(base, 8).tile_log2, 14u);
  EXPECT_EQ(panel_plan(base, 16).tile_log2, 13u);
  EXPECT_EQ(panel_plan(base, 64).tile_log2, 11u);
  EXPECT_EQ(panel_plan(base, 48).tile_log2, 11u);  // ceil(log2(48)) = 6
  // Never shrinks below chunk_log2 + 1.
  const BlockedPlan tight{8, 6};
  EXPECT_EQ(panel_plan(tight, 8).tile_log2, 8u);
  EXPECT_EQ(panel_plan(tight, 1u << 10).tile_log2, 7u);
  EXPECT_GT(panel_plan(tight, 1u << 12).tile_log2, tight.chunk_log2);
}

TEST(PanelButterfly, PackUnpackRoundTrip) {
  const std::size_t n = 64, m = 5;
  std::vector<double> panel(n * m, 0.0);
  std::vector<std::vector<double>> columns(m);
  for (std::size_t j = 0; j < m; ++j) {
    columns[j] = random_vector(n, 900 + j);
    pack_panel_column(columns[j], panel, m, j);
  }
  std::vector<double> column(n);
  for (std::size_t j = 0; j < m; ++j) {
    unpack_panel_column(panel, m, j, column);
    expect_bitwise(columns[j], column, "round trip");
  }
}

TEST(PanelMicrokernels, ActiveKernelsMatchScalarIncludingTails) {
  // The panel-only entries of the span-kernel table (broadcast and column
  // row scalings of an interleaved panel) on every tier this host resolves,
  // the scalar table included, must equal the plain per-row multiply bit
  // for bit: out of place and aliased, at widths below, at and past each
  // SIMD width, and over a row count that is no multiple of the SIMD
  // transpose's, so every tier runs its column and row tails.
  std::vector<const SvKernels*> tables;
  for (SvKernel t : resolvable_tiers()) tables.push_back(&resolve_sv_kernels(t));
  for (const SvKernels* table : tables) {
    SCOPED_TRACE(table->name);
    for (std::size_t m : {1ul, 2ul, 3ul, 4ul, 7ul, 8ul, 9ul, 16ul}) {
      SCOPED_TRACE(::testing::Message() << "m=" << m);
      const std::size_t rows = 19;
      const auto x = random_vector(rows * m, 30 + m);
      const auto s = positive_vector(rows, 40 + m);
      std::vector<double> expected(rows * m);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < m; ++c) {
          expected[r * m + c] = s[r] * x[r * m + c];
        }
      }
      std::vector<double> y(rows * m);
      table->mul_rows_broadcast(y.data(), x.data(), s.data(), rows, m);
      expect_bitwise(expected, y, "mul_rows_broadcast");

      auto aliased = x;
      table->mul_rows_broadcast(aliased.data(), aliased.data(), s.data(), rows,
                                m);
      expect_bitwise(expected, aliased, "mul_rows_broadcast aliased");

      // Column scalings from row `row0` of m separate diagonals.
      const std::size_t row0 = 5;
      std::vector<std::vector<double>> diagonals(m);
      std::vector<const double*> columns(m);
      for (std::size_t c = 0; c < m; ++c) {
        diagonals[c] = positive_vector(row0 + rows, 50 + 10 * m + c);
        columns[c] = diagonals[c].data();
        for (std::size_t r = 0; r < rows; ++r) {
          expected[r * m + c] = diagonals[c][row0 + r] * x[r * m + c];
        }
      }
      table->mul_rows_columns(y.data(), x.data(), columns.data(), row0, rows, m);
      expect_bitwise(expected, y, "mul_rows_columns");
      aliased = x;
      table->mul_rows_columns(aliased.data(), aliased.data(), columns.data(), row0,
                              rows, m);
      expect_bitwise(expected, aliased, "mul_rows_columns aliased");
    }
  }
}

TEST(PanelWide, WideFusedMatchesEightColumnBlocksBitwise) {
  // The wide path (m > 8) sweeps at full width under the caller's plan;
  // band and stage boundaries only reorder work across elements, so every
  // column must come out BIT-IDENTICAL to the m = 8 panel holding the same
  // columns — not merely close.
  const unsigned nu = 10;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 81);
  const auto pre = positive_vector(n, 82);
  const auto post = positive_vector(n, 83);
  constexpr std::size_t kColBlock = 8;
  for (std::size_t m : {16ul, 32ul}) {
    std::vector<double> panel(n * m);
    std::vector<std::vector<double>> columns(m);
    for (std::size_t j = 0; j < m; ++j) {
      columns[j] = random_vector(n, 90 * m + j);
      pack_panel_column(columns[j], panel, m, j);
    }

    // Reference: each 8-column block through the direct m = 8 fused panel.
    std::vector<std::vector<double>> reference(m);
    for (std::size_t j0 = 0; j0 < m; j0 += kColBlock) {
      std::vector<double> block(n * kColBlock), out(n * kColBlock);
      for (std::size_t c = 0; c < kColBlock; ++c) {
        pack_panel_column(columns[j0 + c], block, kColBlock, c);
      }
      apply_blocked_panel_butterfly_fused(block, out, kColBlock, factors, pre,
                                          post, parallel::serial_engine());
      for (std::size_t c = 0; c < kColBlock; ++c) {
        reference[j0 + c].resize(n);
        unpack_panel_column(out, kColBlock, c, reference[j0 + c]);
      }
    }

    for (parallel::TestEngine kind : parallel::kTestEngines) {
      const auto engine = parallel::make_test_engine(kind);
      std::vector<double> out(n * m);
      apply_blocked_panel_butterfly_fused(panel, out, m, factors, pre, post,
                                          *engine, BlockedPlan{});
      std::vector<double> column(n);
      for (std::size_t j = 0; j < m; ++j) {
        unpack_panel_column(out, m, j, column);
        expect_bitwise(reference[j], column, "wide fused column");
      }

      // In-place (x aliasing y exactly) must equal out-of-place bitwise.
      std::vector<double> in_place = panel;
      apply_blocked_panel_butterfly_fused(in_place, in_place, m, factors, pre,
                                          post, *engine, BlockedPlan{});
      expect_bitwise(out, in_place, "wide fused in-place");

      // The no-scalings wrapper agrees with empty spans through the fused
      // entry point.
      std::vector<double> plain = panel;
      apply_blocked_panel_butterfly(plain, m, factors, *engine, BlockedPlan{});
      std::vector<double> plain_ref(n * m);
      apply_blocked_panel_butterfly_fused(panel, plain_ref, m, factors, {}, {},
                                          *engine, BlockedPlan{});
      expect_bitwise(plain_ref, plain, "wide plain wrapper");
    }
  }
}

TEST(PanelWide, OperatorPanelRoutesWideWidthsThroughWidePath) {
  // FmmpOperator::apply_panel with m in {16, 32}: every column must be
  // bit-identical to the m = 8 apply_panel of the block holding it (the
  // full-width sweep only reorders work across elements; per column the
  // arithmetic matches the m = 8 path), and in-place application must match
  // out-of-place.
  const unsigned nu = 8;
  const std::size_t n = std::size_t{1} << nu;
  const auto model = core::MutationModel::uniform(nu, 0.01);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 37);
  constexpr std::size_t kColBlock = 8;
  for (parallel::TestEngine kind : parallel::kTestEngines) {
    const auto engine = parallel::make_test_engine(kind);
    const core::FmmpOperator op(model, landscape, core::Formulation::right,
                                engine.get());
    for (std::size_t m : {16ul, 32ul}) {
      std::vector<double> panel(n * m);
      std::vector<std::vector<double>> columns(m);
      for (std::size_t j = 0; j < m; ++j) {
        columns[j] = random_vector(n, 70 * m + j);
        pack_panel_column(columns[j], panel, m, j);
      }

      std::vector<std::vector<double>> reference(m);
      for (std::size_t j0 = 0; j0 < m; j0 += kColBlock) {
        std::vector<double> block(n * kColBlock), out(n * kColBlock);
        for (std::size_t c = 0; c < kColBlock; ++c) {
          pack_panel_column(columns[j0 + c], block, kColBlock, c);
        }
        op.apply_panel(block, out, kColBlock);
        for (std::size_t c = 0; c < kColBlock; ++c) {
          reference[j0 + c].resize(n);
          unpack_panel_column(out, kColBlock, c, reference[j0 + c]);
        }
      }

      std::vector<double> out(n * m);
      op.apply_panel(panel, out, m);
      std::vector<double> column(n);
      for (std::size_t j = 0; j < m; ++j) {
        unpack_panel_column(out, m, j, column);
        expect_bitwise(reference[j], column, "operator wide column");
      }

      op.apply_panel(panel, panel, m);
      expect_bitwise(out, panel, "operator wide in-place");
    }
  }
}

std::vector<linalg::DenseMatrix> random_group_factors(
    const std::vector<unsigned>& bits, std::uint64_t seed) {
  // Column-stochastic random factors of size 2^bits[i].
  Xoshiro256 rng(seed);
  std::vector<linalg::DenseMatrix> factors;
  for (unsigned b : bits) {
    const std::size_t s = std::size_t{1} << b;
    linalg::DenseMatrix f(s, s);
    for (std::size_t c = 0; c < s; ++c) {
      double sum = 0.0;
      for (std::size_t r = 0; r < s; ++r) {
        f(r, c) = rng.uniform(0.01, 1.0);
        sum += f(r, c);
      }
      for (std::size_t r = 0; r < s; ++r) f(r, c) /= sum;
    }
    factors.push_back(std::move(f));
  }
  return factors;
}

TEST(BlockedKronecker, MatchesSerialReferenceAcrossGroupShapes) {
  // Group layouts covering: all-equal small groups, mixed sizes, one big
  // group, and a group wider than the tile budget (its own band).
  const std::vector<std::vector<unsigned>> shapes = {
      {1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2, 2}, {3, 1, 2, 3, 1},
      {4, 4, 2}, {1, 5, 1, 3}, {10}};
  for (const auto& bits : shapes) {
    const KroneckerProduct kp(random_group_factors(bits, bits.size()));
    const std::size_t n = kp.dimension();
    for (std::size_t m : {1ul, 3ul, 4ul}) {
      std::vector<double> panel(n * m);
      std::vector<std::vector<double>> reference(m);
      for (std::size_t j = 0; j < m; ++j) {
        reference[j] = random_vector(n, 70 + j);
        pack_panel_column(reference[j], panel, m, j);
        apply_kronecker(reference[j], kp);
      }
      for (parallel::TestEngine kind : parallel::kTestEngines) {
        const auto engine = parallel::make_test_engine(kind);
        for (const BlockedPlan plan :
             {BlockedPlan{}, BlockedPlan{4, 2}, BlockedPlan{7, 3}}) {
          std::vector<double> work = panel;
          apply_blocked_kronecker(work, m, kp, *engine, plan);
          std::vector<double> column(n);
          for (std::size_t j = 0; j < m; ++j) {
            unpack_panel_column(work, m, j, column);
            expect_near_all(reference[j], column, kTol);
          }
        }
      }
    }
  }
}

TEST(BlockedKronecker, GroupedMutationModelEnginePathsMatchSerial) {
  // MutationModel's grouped product runs the banded Kronecker kernel on
  // every engine and plan, and the per-group Algorithm 2 reference runs one
  // launch per group: both must reproduce the serial KroneckerProduct::apply
  // bit for bit.
  const auto factors = random_group_factors({2, 3, 1, 2}, 11);
  const auto model = core::MutationModel::grouped(factors);
  const std::size_t n = model.dimension();
  std::vector<double> reference = random_vector(n, 12);
  const std::vector<double> input = reference;
  apply_kronecker(reference, model.group_product());
  std::vector<double> v = input;
  model.apply(v);
  ASSERT_EQ(reference, v);
  for (parallel::TestEngine kind : parallel::kTestEngines) {
    const auto engine = parallel::make_test_engine(kind);
    v = input;
    model.apply(v, *engine);
    ASSERT_EQ(reference, v);
    v = input;
    model.apply(v, *engine, BlockedPlan{5, 3});
    ASSERT_EQ(reference, v);
    v = input;
    apply_kronecker_per_group(v, model.group_product(), *engine);
    ASSERT_EQ(reference, v);
  }
}

TEST(PanelFmmp, MutationModelPanelMatchesPerColumnApply) {
  for (const bool grouped : {false, true}) {
    const auto model =
        grouped ? core::MutationModel::grouped(random_group_factors({2, 3, 2}, 9))
                : core::MutationModel::per_site(asymmetric_factors(7, 9));
    const std::size_t n = model.dimension();
    for (std::size_t m : {2ul, 5ul, 8ul}) {
      std::vector<double> panel(n * m);
      std::vector<std::vector<double>> reference(m);
      for (std::size_t j = 0; j < m; ++j) {
        reference[j] = random_vector(n, 20 + j);
        pack_panel_column(reference[j], panel, m, j);
        model.apply(reference[j]);
      }
      for (parallel::TestEngine kind : parallel::kTestEngines) {
        const auto engine = parallel::make_test_engine(kind);
        std::vector<double> work = panel;
        model.apply_panel(work, m, *engine);
        std::vector<double> column(n);
        for (std::size_t j = 0; j < m; ++j) {
          unpack_panel_column(work, m, j, column);
          expect_bitwise(reference[j], column, "model panel column");
        }
      }
    }
  }
}

TEST(PanelFmmp, OperatorPanelMatchesPerColumnApplyAllFormulations) {
  const unsigned nu = 8;
  const std::size_t n = std::size_t{1} << nu;
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 33);
  for (const bool grouped : {false, true}) {
    const auto model =
        grouped
            ? core::MutationModel::grouped(random_group_factors({2, 2, 2, 2}, 4))
            : core::MutationModel::uniform(nu, 0.01);
    for (const core::Formulation form :
         {core::Formulation::right, core::Formulation::symmetric,
          core::Formulation::left}) {
      if (form == core::Formulation::symmetric && !model.symmetric()) continue;
      for (parallel::TestEngine kind : parallel::kTestEngines) {
        const auto engine = parallel::make_test_engine(kind);
        const core::FmmpOperator op(model, landscape, form, engine.get());
        const std::size_t m = 4;
        std::vector<double> panel(n * m), reference(n), x(n);
        std::vector<std::vector<double>> expected(m);
        for (std::size_t j = 0; j < m; ++j) {
          x = random_vector(n, 50 + j);
          pack_panel_column(x, panel, m, j);
          expected[j].resize(n);
          op.apply(x, expected[j]);
        }
        std::vector<double> out(n * m);
        op.apply_panel(panel, out, m);
        std::vector<double> column(n);
        for (std::size_t j = 0; j < m; ++j) {
          unpack_panel_column(out, m, j, column);
          expect_bitwise(expected[j], column, "operator panel column");
        }
        // In-place panel application agrees with out-of-place.
        op.apply_panel(panel, panel, m);
        expect_bitwise(out, panel, "operator panel in-place");
      }
    }
  }
}

}  // namespace
}  // namespace qs::transforms
