// Cross-backend equivalence tests for the cache-blocked banded butterfly:
// MutationModel::apply on every engine (serial, 3-lane and host pools) and at
// several tile sizes must match the serial reference apply_butterfly to
// <= 1e-14, per-site asymmetric factors included; the Fmmp operator and the
// per-level Algorithm 2 reference must match Algorithm 1 bit for bit.
#include "transforms/blocked_butterfly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/fmmp.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "reference/butterfly.hpp"
#include "reference/fmmp.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::transforms {
namespace {

constexpr double kTol = 1e-14;

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

/// Grouped-model factors whose bit widths cycle 1, 2, 3 and sum to nu.
/// Symmetric factors put `a` on the diagonal and share 1 - a evenly off it;
/// general ones are random column-stochastic.
std::vector<linalg::DenseMatrix> group_factors(unsigned nu, bool symmetric,
                                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<linalg::DenseMatrix> groups;
  for (unsigned used = 0, bits = 1; used < nu; used += bits, bits = bits % 3 + 1) {
    bits = std::min(bits, nu - used);
    const std::size_t s = std::size_t{1} << bits;
    linalg::DenseMatrix f(s, s);
    const double a = rng.uniform(0.6, 0.95);
    for (std::size_t c = 0; c < s; ++c) {
      double sum = 0.0;
      for (std::size_t r = 0; r < s; ++r) {
        f(r, c) = symmetric ? (r == c ? a : (1.0 - a) / static_cast<double>(s - 1))
                            : rng.uniform(0.01, 1.0);
        sum += f(r, c);
      }
      if (!symmetric) {
        for (std::size_t r = 0; r < s; ++r) f(r, c) /= sum;
      }
    }
    groups.push_back(std::move(f));
  }
  return groups;
}

void expect_bitwise(const std::vector<double>& expected,
                    const std::vector<double>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "index " << i;
  }
}

void expect_near_all(const std::vector<double>& expected,
                     const std::vector<double>& actual, double tol) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(expected[i], actual[i], tol) << "index " << i;
  }
}

TEST(BlockedButterfly, AllBackendsMatchSerialReferenceAcrossNu) {
  for (unsigned nu = 1; nu <= 14; ++nu) {
    const auto model = core::MutationModel::per_site(asymmetric_factors(nu, nu));
    const std::size_t n = std::size_t{1} << nu;
    const auto x = random_vector(n, 100 + nu);

    std::vector<double> reference = x;
    apply_butterfly(reference, model.site_factors());

    for (parallel::TestEngine kind : parallel::kTestEngines) {
      const auto engine = parallel::make_test_engine(kind);
      std::vector<double> v = x;
      model.apply(v, *engine);
      expect_near_all(reference, v, kTol);
    }
  }
}

TEST(BlockedButterfly, SeveralTileSizesMatchReference) {
  const BlockedPlan plans[] = {
      {.tile_log2 = 4, .chunk_log2 = 2},
      {.tile_log2 = 6, .chunk_log2 = 3},
      {.tile_log2 = 10, .chunk_log2 = 6},
      {.tile_log2 = 14, .chunk_log2 = 6},
  };
  const auto pool = parallel::make_engine(parallel::Backend::thread_pool);
  for (unsigned nu = 1; nu <= 14; ++nu) {
    const auto model = core::MutationModel::per_site(asymmetric_factors(nu, 200 + nu));
    const std::size_t n = std::size_t{1} << nu;
    const auto x = random_vector(n, 300 + nu);

    std::vector<double> reference = x;
    apply_butterfly(reference, model.site_factors());

    for (const BlockedPlan& plan : plans) {
      std::vector<double> serial_v = x;
      model.apply(serial_v, parallel::serial_engine(), plan);
      expect_near_all(reference, serial_v, kTol);

      std::vector<double> pooled_v = x;
      model.apply(pooled_v, *pool, plan);
      expect_near_all(reference, pooled_v, kTol);
    }
  }
}

TEST(BlockedButterfly, PerLevelEnginePathMatchesBlocked) {
  // Algorithm 2 (one launch per level, GPU index map) on every backend
  // against Algorithm 1 and the banded kernel: the same bits.
  for (unsigned nu : {1u, 3u, 9u, 13u}) {
    const auto model = core::MutationModel::per_site(asymmetric_factors(nu, 400 + nu));
    const std::size_t n = std::size_t{1} << nu;
    const auto x = random_vector(n, 500 + nu);

    std::vector<double> classic = x;
    apply_butterfly(classic, model.site_factors());
    std::vector<double> blocked = x;
    model.apply(blocked);
    expect_bitwise(classic, blocked);
    for (parallel::TestEngine kind : parallel::kTestEngines) {
      const auto engine = parallel::make_test_engine(kind);
      std::vector<double> per_level = x;
      apply_butterfly_per_level(per_level, model.site_factors(), *engine);
      expect_bitwise(classic, per_level);
    }
  }
}

TEST(BlockedButterfly, FusedFmmpFormulationsMatchSerialOperator) {
  // FmmpOperator (banded kernel, scalings fused) against ReferenceFmmp
  // (scale + Algorithm 1 + scale) and its Algorithm 2 form, bit for bit, for
  // every kind, admissible formulation, nu and backend.
  const core::Formulation all[] = {core::Formulation::right,
                                   core::Formulation::symmetric,
                                   core::Formulation::left};
  for (unsigned nu : {1u, 2u, 3u, 5u, 9u, 11u, 13u}) {
    const std::size_t n = std::size_t{1} << nu;
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 7 + nu);
    const auto x = random_vector(n, 42 + nu);
    const core::MutationModel models[] = {
        core::MutationModel::uniform(nu, 0.02),
        core::MutationModel::per_site(asymmetric_factors(nu, 7 + nu)),
        core::MutationModel::grouped(group_factors(nu, true, 9 + nu)),
        core::MutationModel::grouped(group_factors(nu, false, 11 + nu)),
    };
    for (const auto& model : models) {
      for (core::Formulation formulation : all) {
        if (formulation == core::Formulation::symmetric && !model.symmetric()) continue;
        SCOPED_TRACE(::testing::Message()
                     << "nu=" << nu << " kind=" << static_cast<int>(model.kind())
                     << " formulation=" << static_cast<int>(formulation));
        std::vector<double> expected(n);
        reference::ReferenceFmmp(model, landscape, formulation).apply(x, expected);

        std::vector<double> y(n);
        core::FmmpOperator(model, landscape, formulation).apply(x, y);
        expect_bitwise(expected, y);
        for (parallel::TestEngine kind : parallel::kTestEngines) {
          const auto engine = parallel::make_test_engine(kind);
          core::FmmpOperator(model, landscape, formulation, engine.get()).apply(x, y);
          expect_bitwise(expected, y);
          reference::ReferenceFmmp(model, landscape, formulation, engine.get())
              .apply(x, y);
          expect_bitwise(expected, y);
        }
      }
    }
  }
}

TEST(BlockedButterfly, DegenerateNuZeroAppliesScalingsOnly) {
  // nu = 0 is below MutationModel's domain but the raw kernel must handle
  // the N = 1 vector: no levels, just the fused diagonal scalings.
  std::vector<double> x{3.0}, y{0.0};
  const std::vector<double> pre{2.0}, post{5.0};
  apply_blocked_butterfly_fused(x, y, {}, pre, post, parallel::serial_engine());
  EXPECT_DOUBLE_EQ(y[0], 30.0);

  std::vector<double> in_place{4.0};
  apply_blocked_butterfly(in_place, {}, parallel::serial_engine());
  EXPECT_DOUBLE_EQ(in_place[0], 4.0);
}

TEST(BlockedButterfly, NuOneSingleLevel) {
  const auto model = core::MutationModel::per_site({Factor2::asymmetric(0.1, 0.3)});
  std::vector<double> reference{0.7, 0.3};
  apply_butterfly(reference, model.site_factors());
  for (parallel::TestEngine kind : parallel::kTestEngines) {
    const auto engine = parallel::make_test_engine(kind);
    std::vector<double> v{0.7, 0.3};
    model.apply(v, *engine);
    expect_near_all(reference, v, kTol);
  }
}

TEST(BlockedButterfly, SingleThreadPoolMatchesReference) {
  const parallel::ThreadPoolBackend pool(1);
  ASSERT_EQ(pool.concurrency(), 1u);
  for (unsigned nu : {1u, 6u, 12u}) {
    const auto model = core::MutationModel::per_site(asymmetric_factors(nu, 600 + nu));
    const std::size_t n = std::size_t{1} << nu;
    const auto x = random_vector(n, 700 + nu);

    std::vector<double> reference = x;
    apply_butterfly(reference, model.site_factors());
    std::vector<double> v = x;
    model.apply(v, pool);
    expect_near_all(reference, v, kTol);
  }
}

TEST(BlockedButterfly, BandBoundariesCoverAllLevelsOnce) {
  // Tiles count rows.  From nu = 3 on a single vector runs as rows of 8 on
  // every tier: the bounds are the row bounds of nu - 3 levels shifted up
  // by the three in-row levels, which band 0 carries on top of its tile
  // levels.
  for (SvKernel tier : {SvKernel::automatic, SvKernel::scalar}) {
    const BlockedPlan plan{.tile_log2 = 14, .chunk_log2 = 6, .sv_kernel = tier};
    for (unsigned nu = 0; nu <= 30; ++nu) {
      const bool rows_of_8 = nu >= 3;
      const auto bounds = blocked_band_boundaries(nu, plan);
      ASSERT_GE(bounds.size(), 1u);
      EXPECT_EQ(bounds.front(), 0u);
      if (nu == 0) {
        EXPECT_EQ(bounds.size(), 1u);
        continue;
      }
      EXPECT_EQ(bounds.back(), nu);
      for (std::size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_LT(bounds[i - 1], bounds[i]);
        const unsigned in_row = rows_of_8 && i == 1 ? 3u : 0u;
        EXPECT_LE(bounds[i] - bounds[i - 1], plan.tile_log2 + in_row);
      }
      const BandBounds rows = row_band_bounds(rows_of_8 ? nu - 3 : nu, plan);
      ASSERT_EQ(bounds.size(), std::max<std::size_t>(rows.count, 2));
      for (std::size_t i = 1; i < rows.count; ++i) {
        EXPECT_EQ(bounds[i], rows[i] + (rows_of_8 ? 3u : 0u)) << "nu " << nu;
      }
    }
  }
}

}  // namespace
}  // namespace qs::transforms
