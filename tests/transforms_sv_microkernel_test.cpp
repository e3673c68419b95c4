// Bit-identity tests for the SIMD span microkernels: every kernel tier
// (scalar, AVX2, AVX-512F) and every fused radix must reproduce the
// paper's Algorithm 1 (reference/butterfly) EXACTLY — ASSERT_EQ on doubles,
// not ASSERT_NEAR.  This is the module's contract (see sv_microkernel.hpp): the
// one kernel table sits underneath every default solve and every panel
// product, so switching tiers must not move a single bit of any residual
// trajectory.
#include "transforms/sv_microkernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "linalg/tree_reduce.hpp"
#include "parallel/engine.hpp"
#include "reference/butterfly.hpp"
#include "reference/fmmp.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/butterfly.hpp"
#include "test_engines.hpp"

namespace qs::transforms {
namespace {

std::vector<Factor2> asymmetric_factors(unsigned nu, std::uint64_t seed) {
  std::vector<Factor2> sites;
  sites.reserve(nu);
  Xoshiro256 rng(seed);
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(
        Factor2::asymmetric(rng.uniform(0.001, 0.4), rng.uniform(0.001, 0.4)));
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

void expect_bitwise(const std::vector<double>& expected,
                    const std::vector<double>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " index " << i;
  }
}

// The SIMD tables that actually compiled in and run on this CPU, with the
// scalar reference always first.
std::vector<const SvKernels*> available_tables() {
  std::vector<const SvKernels*> tables = {&scalar_sv_kernels()};
  if (const SvKernels* t = avx2_sv_kernels()) tables.push_back(t);
  if (const SvKernels* t = avx512_sv_kernels()) tables.push_back(t);
  return tables;
}

TEST(SvMicrokernel, SimdSpanKernelsBitwiseMatchScalarIncludingTails) {
  const SvKernels& scalar = scalar_sv_kernels();
  const Factor2 f = Factor2::asymmetric(0.013, 0.27);
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t cnt :
         {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 64ul, 101ul}) {
      const auto lo0 = random_vector(cnt, cnt);
      const auto hi0 = random_vector(cnt, cnt + 1);
      const auto s = positive_vector(cnt, cnt + 2);

      auto lo_a = lo0, hi_a = hi0, lo_b = lo0, hi_b = hi0;
      scalar.butterfly_span(lo_a.data(), hi_a.data(), cnt, f);
      table->butterfly_span(lo_b.data(), hi_b.data(), cnt, f);
      expect_bitwise(lo_a, lo_b, "butterfly_span lo");
      expect_bitwise(hi_a, hi_b, "butterfly_span hi");

      std::vector<double> ya(cnt), yb(cnt);
      scalar.mul_span(ya.data(), lo0.data(), s.data(), cnt);
      table->mul_span(yb.data(), lo0.data(), s.data(), cnt);
      expect_bitwise(ya, yb, "mul_span");

      auto zb = lo0;
      table->mul_span(zb.data(), zb.data(), s.data(), cnt);
      expect_bitwise(ya, zb, "mul_span aliased");
    }
  }
}

TEST(SvMicrokernel, FusedRadixKernelsBitwiseEqualPairComposition) {
  // Radix-4 and radix-8 fusions must equal the composition of plain pair
  // levels BIT FOR BIT: fusion only reorders independent pairs, and each
  // element still sees the identical m00*t1 + m01*t2 two-rounding sequence.
  const SvKernels& scalar = scalar_sv_kernels();
  const Factor2 f0 = Factor2::asymmetric(0.013, 0.27);
  const Factor2 f1 = Factor2::asymmetric(0.041, 0.18);
  const Factor2 f2 = Factor2::asymmetric(0.009, 0.33);
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t cnt :
         {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 13ul, 15ul, 16ul, 64ul, 101ul}) {
      // Radix-4: f0 on (r0,r1),(r2,r3) then f1 on (r0,r2),(r1,r3).
      auto quad_ref = random_vector(4 * cnt, cnt + 3);
      auto quad_act = quad_ref;
      {
        double* q = quad_ref.data();
        scalar.butterfly_span(q, q + cnt, cnt, f0);
        scalar.butterfly_span(q + 2 * cnt, q + 3 * cnt, cnt, f0);
        scalar.butterfly_span(q, q + 2 * cnt, cnt, f1);
        scalar.butterfly_span(q + cnt, q + 3 * cnt, cnt, f1);
      }
      {
        double* q = quad_act.data();
        table->butterfly_quad_span(q, q + cnt, q + 2 * cnt, q + 3 * cnt, cnt,
                                   f0, f1);
      }
      expect_bitwise(quad_ref, quad_act, "butterfly_quad_span");

      // Radix-8: three pairing rounds on eight spans spaced `cnt` apart.
      auto oct_ref = random_vector(8 * cnt, cnt + 4);
      auto oct_act = oct_ref;
      {
        double* q = oct_ref.data();
        for (std::size_t k = 0; k < 8; k += 2) {
          scalar.butterfly_span(q + k * cnt, q + (k + 1) * cnt, cnt, f0);
        }
        for (std::size_t k : {0ul, 1ul, 4ul, 5ul}) {
          scalar.butterfly_span(q + k * cnt, q + (k + 2) * cnt, cnt, f1);
        }
        for (std::size_t k = 0; k < 4; ++k) {
          scalar.butterfly_span(q + k * cnt, q + (k + 4) * cnt, cnt, f2);
        }
      }
      table->butterfly_oct_span(oct_act.data(), cnt, cnt, f0, f1, f2);
      expect_bitwise(oct_ref, oct_act, "butterfly_oct_span");
    }
  }
}

/// Exact bit patterns (signed zeros, subnormals, infinities), with NaN
/// matching NaN.  NaN payloads are not compared: when both operands of an
/// add are NaN the result carries the first one's payload, and a compiler
/// may swap the operands of a commutative add in any tier — two scalar
/// compilations of the same expression already disagree there.
void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::isnan(expected[i])) {
      ASSERT_TRUE(std::isnan(actual[i])) << what << " index " << i;
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << what << " index " << i << ": " << expected[i] << " vs " << actual[i];
  }
}

/// Random values in [-1, 1) with about one element in five replaced by a
/// special: -0.0, subnormals, +-Inf, and quiet NaNs with distinct payloads.
std::vector<double> vector_with_specials(std::size_t n, std::uint64_t seed) {
  const double specials[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3.5e-310,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(std::uint64_t{0x7FF8000000000001}),
      std::bit_cast<double>(std::uint64_t{0xFFF800000000BEEF}),
  };
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
    if (rng.uniform(0.0, 1.0) < 0.2) {
      x = specials[static_cast<std::size_t>(rng.uniform(0.0, 7.0)) % 7];
    }
  }
  return v;
}

TEST(SvMicrokernel, Rows8StageBitwiseMatchesThreeScalarLevels) {
  // rows8_stage is levels 0-2 of the single-vector product inside each
  // 8-double row, fused with the pre-scale.  Every tier must equal the
  // scalar mul_span followed by three plain pair levels bit for bit, on
  // inputs full of signed zeros, subnormals, infinities and NaNs.
  const SvKernels& scalar = scalar_sv_kernels();
  const Factor2 f0 = Factor2::asymmetric(0.013, 0.27);
  const Factor2 f1 = Factor2::asymmetric(0.041, 0.18);
  const Factor2 f2 = Factor2::asymmetric(0.009, 0.33);
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t rows : {1ul, 2ul, 3ul, 64ul, 1000ul}) {
      const std::size_t n = 8 * rows;
      const auto x = vector_with_specials(n, 300 + rows);
      const auto s = vector_with_specials(n, 400 + rows);
      for (const bool scaled : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows
                                          << " scaled=" << scaled);
        std::vector<double> reference = x;
        if (scaled) scalar.mul_span(reference.data(), x.data(), s.data(), n);
        for (std::size_t r = 0; r < rows; ++r) {
          double* q = reference.data() + 8 * r;
          for (std::size_t k : {0ul, 2ul, 4ul, 6ul}) {
            scalar.butterfly_span(q + k, q + k + 1, 1, f0);
          }
          for (std::size_t k : {0ul, 1ul, 4ul, 5ul}) {
            scalar.butterfly_span(q + k, q + k + 2, 1, f1);
          }
          for (std::size_t k : {0ul, 1ul, 2ul, 3ul}) {
            scalar.butterfly_span(q + k, q + k + 4, 1, f2);
          }
        }
        const double* sp = scaled ? s.data() : nullptr;

        std::vector<double> out(n);
        table->rows8_stage(out.data(), x.data(), sp, rows, f0, f1, f2);
        expect_same_bits(reference, out, "rows8_stage out-of-place");

        std::vector<double> in_place = x;
        table->rows8_stage(in_place.data(), in_place.data(), sp, rows, f0, f1,
                           f2);
        expect_same_bits(reference, in_place, "rows8_stage aliased");
      }
    }
  }
}

TEST(SvMicrokernel, BlockedApplyBitIdenticalAcrossTiersBackendsAndNu) {
  // The whole banded apply — every tier, every fused radix, every backend —
  // against Algorithm 1.  This is the acceptance criterion of the
  // microkernel layer: identical per-element math whatever the banding.
  const SvKernel tiers[] = {SvKernel::automatic, SvKernel::scalar, SvKernel::avx2,
                            SvKernel::avx512};
  for (unsigned nu :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 16u, 22u}) {
    const std::size_t n = std::size_t{1} << nu;
    const auto factors = asymmetric_factors(nu, 1000 + nu);
    const auto x = random_vector(n, 2000 + nu);

    std::vector<double> reference = x;
    apply_butterfly(reference, factors);

    for (parallel::TestEngine kind : parallel::kTestEngines) {
      const auto engine = parallel::make_test_engine(kind);
      for (SvKernel tier : tiers) {
        for (unsigned radix : {2u, 4u, 8u}) {
          BlockedPlan plan;
          plan.sv_kernel = tier;
          plan.sv_max_radix = radix;
          std::vector<double> v = x;
          apply_blocked_butterfly(v, factors, *engine, plan);
          SCOPED_TRACE(::testing::Message()
                       << "nu=" << nu << " tier=" << to_string(tier)
                       << " radix=" << radix << " backend="
                       << static_cast<int>(kind));
          expect_bitwise(reference, v, "apply_blocked_butterfly");
        }
      }
    }
  }
}

TEST(SvMicrokernel, FusedScalingsBitIdenticalAcrossTiers) {
  // The fused pre/post diagonal scalings ride inside the first/last band; a
  // plain element-wise product is bitwise the same in scalar and SIMD, so
  // the whole fused product must equal scale, Algorithm 1, scale — out of
  // place and exactly aliased in place, for the pre-only (right), post-only
  // (left) and pre+post (symmetric) formulations.
  const unsigned nu = 12;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 77);
  const auto x = random_vector(n, 78);
  const auto pre_values = positive_vector(n, 79);
  const auto post_values = positive_vector(n, 80);
  const std::span<const double> none;

  for (const bool with_pre : {true, false}) {
    for (const bool with_post : {true, false}) {
      if (!with_pre && !with_post) continue;
      const std::span<const double> pre = with_pre ? pre_values : none;
      const std::span<const double> post = with_post ? post_values : none;
      SCOPED_TRACE(::testing::Message() << "pre=" << with_pre
                                        << " post=" << with_post);

      std::vector<double> reference = x;
      if (with_pre) {
        for (std::size_t i = 0; i < n; ++i) reference[i] = pre[i] * reference[i];
      }
      apply_butterfly(reference, factors);
      if (with_post) {
        for (std::size_t i = 0; i < n; ++i) reference[i] *= post[i];
      }

      for (SvKernel tier : {SvKernel::automatic, SvKernel::scalar, SvKernel::avx2,
                            SvKernel::avx512}) {
        BlockedPlan plan;
        plan.sv_kernel = tier;
        SCOPED_TRACE(to_string(tier));
        std::vector<double> y(n);
        apply_blocked_butterfly_fused(x, y, factors, pre, post,
                                      parallel::serial_engine(), plan);
        expect_bitwise(reference, y, "fused out-of-place");

        std::vector<double> in_place = x;
        apply_blocked_butterfly_fused(in_place, in_place, factors, pre, post,
                                      parallel::serial_engine(), plan);
        expect_bitwise(reference, in_place, "fused in-place");
      }
    }
  }
}

TEST(SvMicrokernel, PlanVariationsStayBitIdentical) {
  // Tile/chunk choices change the band partition and the L1 sub-tile
  // staging changes the sweep order inside a band; neither may change bits.
  const unsigned nu = 14;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 55);
  const auto x = random_vector(n, 56);

  std::vector<double> reference = x;
  apply_butterfly(reference, factors);

  for (const BlockedPlan base : {BlockedPlan{4, 2}, BlockedPlan{6, 3},
                                 BlockedPlan{10, 6}, BlockedPlan{14, 6},
                                 BlockedPlan{16, 8}}) {
    for (SvKernel tier : {SvKernel::automatic, SvKernel::scalar}) {
      BlockedPlan plan = base;
      plan.sv_kernel = tier;
      std::vector<double> v = x;
      apply_blocked_butterfly(v, factors, parallel::serial_engine(), plan);
      SCOPED_TRACE(::testing::Message() << "tile=" << base.tile_log2
                                        << " chunk=" << base.chunk_log2
                                        << " tier=" << to_string(tier));
      expect_bitwise(reference, v, "plan variation");
    }
  }
}

TEST(SvMicrokernel, BandBoundsMatchVectorBoundaries) {
  // The allocation-free BandBounds must agree with the std::vector form for
  // every nu and plan the apply paths can see.
  for (const BlockedPlan plan : {BlockedPlan{14, 6}, BlockedPlan{4, 2},
                                 BlockedPlan{20, 6}, BlockedPlan{8, 3}}) {
    for (unsigned nu = 0; nu <= 30; ++nu) {
      const auto expected = blocked_band_boundaries(nu, plan);
      const BandBounds bounds = blocked_band_bounds(nu, plan);
      ASSERT_EQ(expected.size(), bounds.count) << "nu " << nu;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], bounds[i]) << "nu " << nu << " entry " << i;
      }
    }
  }
}

TEST(SvMicrokernel, ResolutionAndNamesAreConsistent) {
  // scalar always resolves to the scalar table.
  EXPECT_EQ(&resolve_sv_kernels(SvKernel::scalar), &scalar_sv_kernels());
  EXPECT_EQ(std::string_view(resolved_sv_kernel_name(SvKernel::scalar)), "scalar");

  // automatic resolves to the widest available table, or scalar.
  const SvKernels* best = best_sv_kernels();
  const SvKernels& automatic = resolve_sv_kernels(SvKernel::automatic);
  if (const SvKernels* a512 = avx512_sv_kernels()) {
    EXPECT_EQ(best, a512);
    EXPECT_EQ(std::string_view(best->name), "avx512");
  } else if (const SvKernels* a2 = avx2_sv_kernels()) {
    EXPECT_EQ(best, a2);
    EXPECT_EQ(std::string_view(best->name), "avx2");
  } else {
    EXPECT_EQ(best, nullptr);
  }
  EXPECT_EQ(&automatic, best != nullptr ? best : &scalar_sv_kernels());

  // An explicitly requested tier resolves to its table when available and
  // degrades to scalar when not — plans stay portable across hosts.
  for (const auto& [tier, table] :
       {std::pair{SvKernel::avx2, avx2_sv_kernels()},
        std::pair{SvKernel::avx512, avx512_sv_kernels()}}) {
    const SvKernels& resolved = resolve_sv_kernels(tier);
    EXPECT_EQ(&resolved, table != nullptr ? table : &scalar_sv_kernels())
        << to_string(tier);
    EXPECT_EQ(std::string_view(resolved_sv_kernel_name(tier)),
              std::string_view(resolved.name));
  }

  EXPECT_EQ(std::string_view(to_string(SvKernel::automatic)), "automatic");
  EXPECT_EQ(std::string_view(to_string(SvKernel::scalar)), "scalar");
  EXPECT_EQ(std::string_view(to_string(SvKernel::avx2)), "avx2");
  EXPECT_EQ(std::string_view(to_string(SvKernel::avx512)), "avx512");
  EXPECT_EQ(std::string_view(scalar_sv_kernels().name), "scalar");
}

TEST(SvMicrokernel, EveryTierMatchesReferenceFmmpBelowAndAboveTheRowStage) {
  // The operator-level form of the contract, across the nu = 3 boundary
  // where a single vector switches from a one-column panel to rows of 8:
  // FmmpOperator on every tier is bit-identical to ReferenceFmmp (scale,
  // Algorithm 1, scale) in all three formulations.
  for (unsigned nu = 1; nu <= 12; ++nu) {
    const auto model = core::MutationModel::uniform(nu, 0.01 + 0.003 * nu);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 300 + nu);
    const auto x = positive_vector(std::size_t{1} << nu, 400 + nu);
    for (core::Formulation form : {core::Formulation::right, core::Formulation::left,
                                   core::Formulation::symmetric}) {
      std::vector<double> expected(x.size());
      reference::ReferenceFmmp(model, landscape, form).apply(x, expected);
      for (SvKernel tier : {SvKernel::scalar, SvKernel::avx2, SvKernel::avx512}) {
        SCOPED_TRACE(::testing::Message() << "nu=" << nu << " formulation="
                                          << static_cast<int>(form)
                                          << " tier=" << resolved_sv_kernel_name(tier));
        BlockedPlan plan;
        plan.sv_kernel = tier;
        const core::FmmpOperator op(model, landscape, form, nullptr, plan);
        std::vector<double> y(x.size());
        op.apply(x, y);
        expect_bitwise(expected, y, "FmmpOperator");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-ordered reductions: every tier against linalg::tree_reduce itself.
// ---------------------------------------------------------------------------

/// Same bits, or both NaN (NaN payloads depend on operand order, which IEEE
/// addition leaves free; every other result, -0.0 included, must match).
bool same_bits(double expected, double actual) {
  if (std::isnan(expected) && std::isnan(actual)) return true;
  return std::bit_cast<std::uint64_t>(expected) ==
         std::bit_cast<std::uint64_t>(actual);
}

/// Lengths on both sides of every path: below one 64-leaf block, whole
/// powers of two up to 2^16 (the blockwise path from 64 on), and
/// non-powers of two (the scalar tree at any size).
std::vector<std::size_t> reduction_lengths() {
  std::vector<std::size_t> lengths = {3, 31, 33, 63, 65, 100, 127, 129,
                                      1000, 4095, 4097, 5000};
  for (std::size_t n = 1; n <= (std::size_t{1} << 16); n *= 2) {
    lengths.push_back(n);
  }
  return lengths;
}

/// A vector with negatives and, when `specials`, -0.0, +-Inf and NaN
/// scattered through it (a few per block, so they reach every lane).
std::vector<double> reduction_input(std::size_t n, std::uint64_t seed,
                                    bool specials) {
  std::vector<double> v = random_vector(n, seed);
  if (!specials) return v;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double special[] = {-0.0, 0.0, inf, -inf, nan};
  Xoshiro256 rng(seed + 99);
  for (std::size_t k = 0; k < n / 16 + 1; ++k) {
    v[rng.uniform_index(n)] = special[rng.uniform_index(std::size(special))];
  }
  return v;
}

/// Inputs whose sums stay finite (so the comparison really is bitwise) and
/// inputs with specials (so NaN/Inf propagate through every tree level).
const bool kSpecialCases[] = {false, true};

TEST(SvTreeReduction, SignSumsAndAbsSumMatchTreeReduceOnEveryTier) {
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (bool specials : kSpecialCases) {
      for (std::size_t n : reduction_lengths()) {
        const auto v = reduction_input(n, n + 1, specials);
        const double* p = v.data();
        const double positive = linalg::tree_reduce(
            std::size_t{0}, n, [p](std::size_t i) { return p[i] > 0.0 ? p[i] : 0.0; });
        const double negative = linalg::tree_reduce(
            std::size_t{0}, n, [p](std::size_t i) { return p[i] < 0.0 ? p[i] : 0.0; });
        const double abs_sum = linalg::tree_reduce(
            std::size_t{0}, n, [p](std::size_t i) { return std::abs(p[i]); });
        const TreeSums signs = table->tree_sign_sums(p, n);
        ASSERT_TRUE(same_bits(positive, signs.first))
            << "positive part n=" << n << " specials=" << specials;
        ASSERT_TRUE(same_bits(negative, signs.second))
            << "negative part n=" << n << " specials=" << specials;
        ASSERT_TRUE(same_bits(abs_sum, table->tree_abs_sum(p, n)))
            << "tree_abs_sum n=" << n << " specials=" << specials;
      }
    }
  }
}

TEST(SvTreeReduction, PositivePartOfANonnegativeVectorIsItsAbsSum) {
  // The orientation pass normalises by the positive part's sum; with no
  // negative entry that must be the tree 1-norm, bit for bit, signed zeros
  // included.
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t n : reduction_lengths()) {
      std::vector<double> v = positive_vector(n, n + 7);
      for (std::size_t i = 0; i < n; i += 5) v[i] = (i % 2 == 0) ? 0.0 : -0.0;
      const TreeSums signs = table->tree_sign_sums(v.data(), n);
      ASSERT_TRUE(same_bits(table->tree_abs_sum(v.data(), n), signs.first)) << n;
      ASSERT_TRUE(same_bits(0.0, signs.second)) << n;
    }
  }
}

TEST(SvTreeReduction, CheckSumsMatchTreeReduceOnEveryTier) {
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (bool specials : kSpecialCases) {
      for (double mu : {0.0, 0.3, -1.5}) {
        for (std::size_t n : reduction_lengths()) {
          const auto x = reduction_input(n, 2 * n + 3, specials);
          const auto y = reduction_input(n, 3 * n + 5, specials);
          const double* xp = x.data();
          const double* yp = y.data();
          const double xx = linalg::tree_reduce(
              std::size_t{0}, n, [xp](std::size_t i) { return xp[i] * xp[i]; });
          const double xy = linalg::tree_reduce(
              std::size_t{0}, n,
              [xp, yp](std::size_t i) { return xp[i] * yp[i]; });
          // mu == 0 is the unshifted iteration: |y| with no product of x.
          const double norm = linalg::tree_reduce(
              std::size_t{0}, n, [xp, yp, mu](std::size_t i) {
                return std::abs(mu == 0.0 ? yp[i] : yp[i] - mu * xp[i]);
              });
          const TreeSums got = table->tree_check_sums(xp, yp, n, mu);
          ASSERT_TRUE(same_bits(xx, got.first))
              << "xx n=" << n << " mu=" << mu << " specials=" << specials;
          ASSERT_TRUE(same_bits(xy, got.second))
              << "xy n=" << n << " mu=" << mu << " specials=" << specials;
          ASSERT_TRUE(same_bits(norm, got.third))
              << "norm n=" << n << " mu=" << mu << " specials=" << specials;
        }
      }
    }
  }
}

TEST(SvTreeReduction, ResidualUpdateMatchesTreeReduceOnEveryTier) {
  const double lambda = 0.7;
  const double inv = 1.0 / 3.0;
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (bool specials : kSpecialCases) {
      for (double mu : {0.0, 0.3, -1.5}) {
        for (std::size_t n : reduction_lengths()) {
          const auto x = reduction_input(n, 5 * n + 7, specials);
          const auto y0 = reduction_input(n, 7 * n + 11, specials);
          const double* xp = x.data();
          const double* y0p = y0.data();
          const double res2 = linalg::tree_reduce(
              std::size_t{0}, n, [xp, y0p, lambda](std::size_t i) {
                const double r = y0p[i] - lambda * xp[i];
                return r * r;
              });
          std::vector<double> updated(n);
          for (std::size_t i = 0; i < n; ++i) {
            updated[i] = (mu == 0.0 ? y0[i] : y0[i] - mu * x[i]) * inv;
          }

          std::vector<double> y = y0;
          const double got =
              table->tree_residual_update(xp, y.data(), n, lambda, mu, inv);
          ASSERT_TRUE(same_bits(res2, got))
              << "residual n=" << n << " mu=" << mu << " specials=" << specials;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(same_bits(updated[i], y[i]))
                << "written-back y[" << i << "] n=" << n << " mu=" << mu;
          }
        }
      }
    }
  }
}

TEST(SvTreeReduction, Panel8PassesMatchTreeReducePerColumnOnEveryTier) {
  // Every column of an interleaved 8-column panel, summed over rows, must be
  // the tree_reduce of that column — the single-vector entries' bits.
  constexpr std::size_t m = 8;
  const double mu = 0.3;
  const double lambda[m] = {0.7, 0.9, 1.1, 0.2, 3.0, 0.5, 0.8, 1.3};
  const double inv[m] = {0.25, 0.5, 1.0 / 3.0, 2.0, 0.125, 1.5, 0.75, 4.0};
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (bool specials : kSpecialCases) {
      for (std::size_t rows : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                               std::size_t{100}, std::size_t{1024}}) {
        const auto x = reduction_input(rows * m, 11 * rows + 1, specials);
        const auto y0 = reduction_input(rows * m, 13 * rows + 2, specials);
        for (double shift : {0.0, mu}) {
          double check[3 * m];
          table->panel8_check_sums(x.data(), y0.data(), rows, shift, check);
          std::vector<double> y = y0;
          double res[m];
          table->panel8_residual_update(x.data(), y.data(), rows, lambda, shift, inv, res);
          for (std::size_t c = 0; c < m; ++c) {
            const auto column = [&x, c](std::size_t i) { return x[i * m + c]; };
            const auto other = [&y0, c](std::size_t i) { return y0[i * m + c]; };
            const auto sum = [rows](const auto& leaf) {
              return linalg::tree_reduce(std::size_t{0}, rows, leaf);
            };
            ASSERT_TRUE(same_bits(sum([&](std::size_t i) { return column(i) * column(i); }),
                                  check[c])) << "xx rows=" << rows << " column " << c;
            ASSERT_TRUE(same_bits(sum([&](std::size_t i) { return column(i) * other(i); }),
                                  check[m + c])) << "xy rows=" << rows << " column " << c;
            ASSERT_TRUE(same_bits(sum([&](std::size_t i) {
                                    return std::abs(shift == 0.0 ? other(i)
                                                                 : other(i) - shift * column(i));
                                  }),
                                  check[2 * m + c])) << "norm rows=" << rows << " column " << c;
            ASSERT_TRUE(same_bits(sum([&](std::size_t i) {
                                    const double r = other(i) - lambda[c] * column(i);
                                    return r * r;
                                  }),
                                  res[c])) << "residual rows=" << rows << " column " << c;
            for (std::size_t i = 0; i < rows; ++i) {
              const double z = shift == 0.0 ? other(i) : other(i) - shift * column(i);
              ASSERT_TRUE(same_bits(z * inv[c], y[i * m + c])) << "updated y row " << i;
            }
          }
          double orient[2 * m];
          table->panel8_sign_sums(x.data(), rows, orient);
          for (std::size_t c = 0; c < m; ++c) {
            const double* xp = x.data();
            ASSERT_TRUE(same_bits(linalg::tree_reduce(std::size_t{0}, rows,
                                                      [xp, c](std::size_t i) {
                                                        const double v = xp[i * m + c];
                                                        return v > 0.0 ? v : 0.0;
                                                      }),
                                  orient[c])) << "positive rows=" << rows << " column " << c;
            ASSERT_TRUE(same_bits(linalg::tree_reduce(std::size_t{0}, rows,
                                                      [xp, c](std::size_t i) {
                                                        const double v = xp[i * m + c];
                                                        return v < 0.0 ? v : 0.0;
                                                      }),
                                  orient[m + c])) << "negative rows=" << rows << " column " << c;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qs::transforms
