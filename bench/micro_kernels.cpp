// Kernel-level microbenchmarks (google-benchmark): the primitives every
// solver is built from.  Complexity annotations let `--benchmark_enable_
// random_interleaving` style runs verify the Theta(N log N) scaling claims
// at the kernel level.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/fmmp.hpp"
#include "parallel/engine.hpp"
#include "reference/butterfly.hpp"
#include "reference/fmmp.hpp"
#include "reference/xmvp.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/fwht.hpp"
#include "transforms/sv_microkernel.hpp"
#include "transforms/panel_butterfly.hpp"

namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  qs::Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  return v;
}

void BM_Fwht(benchmark::State& state) {
  const std::size_t n = std::size_t{1} << state.range(0);
  auto v = random_vector(n, 1);
  for (auto _ : state) {
    qs::transforms::fwht(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_Fwht)->DenseRange(10, 22, 4)->Complexity(benchmark::oNLogN);

void BM_UniformButterfly(benchmark::State& state) {
  const std::size_t n = std::size_t{1} << state.range(0);
  auto v = random_vector(n, 2);
  for (auto _ : state) {
    qs::transforms::apply_uniform_butterfly(v, 0.01);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_UniformButterfly)->DenseRange(10, 22, 4)->Complexity(benchmark::oNLogN);

void BM_FmmpApply(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const std::size_t n = std::size_t{1} << nu;
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, 3);
  const qs::core::FmmpOperator op(model, landscape);
  auto x = random_vector(n, 4);
  std::vector<double> y(n);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FmmpApply)->DenseRange(10, 22, 4)->Complexity(benchmark::oNLogN);

// Engine-backed Fmmp: arg0 = nu, arg1 = 0 for the per-level Algorithm 2
// reference (reference::ReferenceFmmp), 1 for the production banded kernel
// (fused F-scalings).
void BM_FmmpApplyEngine(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const std::size_t n = std::size_t{1} << nu;
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, 3);
  const auto& engine = qs::parallel::parallel_engine();
  const qs::reference::ReferenceFmmp per_level(model, landscape,
                                               qs::core::Formulation::right, &engine);
  const qs::core::FmmpOperator blocked(model, landscape, qs::core::Formulation::right,
                                       &engine);
  const qs::core::LinearOperator& op =
      state.range(1) == 0 ? static_cast<const qs::core::LinearOperator&>(per_level)
                          : blocked;
  auto x = random_vector(n, 4);
  std::vector<double> y(n);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FmmpApplyEngine)
    ->ArgsProduct({benchmark::CreateDenseRange(14, 22, 4), {0, 1}});

// The bare banded butterfly vs the per-level launch loop, isolated from the
// diagonal scalings: the pass-count story of DESIGN.md's banded-kernel
// section at the transform level.
void BM_MutationApplyPerLevel(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  auto v = random_vector(std::size_t{1} << nu, 5);
  for (auto _ : state) {
    qs::transforms::apply_butterfly_per_level(v, model.site_factors(),
                                              qs::parallel::parallel_engine());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_MutationApplyPerLevel)->DenseRange(14, 22, 4);

void BM_MutationApplyBlocked(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  auto v = random_vector(std::size_t{1} << nu, 5);
  for (auto _ : state) {
    model.apply(v, qs::parallel::parallel_engine());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_MutationApplyBlocked)->DenseRange(14, 22, 4);

// Multi-vector (panel) banded butterfly: arg0 = nu, arg1 = panel width m.
// Per-vector items-per-second lets this be compared directly against the
// single-vector BM_MutationApplyBlocked above.
void BM_PanelButterfly(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t n = std::size_t{1} << nu;
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  auto panel = random_vector(n * m, 10);
  const auto& engine = qs::parallel::parallel_engine();
  for (auto _ : state) {
    model.apply_panel(panel, m, engine);
    benchmark::DoNotOptimize(panel.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_PanelButterfly)
    ->ArgsProduct({benchmark::CreateDenseRange(14, 22, 4), {1, 4, 8}});

// Engine-backed panel Fmmp (scalings fused) vs m sequential blocked applies:
// arg0 = nu, arg1 = m.
void BM_FmmpApplyPanel(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t n = std::size_t{1} << nu;
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, 3);
  const qs::core::FmmpOperator op(model, landscape, qs::core::Formulation::right,
                                  &qs::parallel::parallel_engine());
  auto x = random_vector(n * m, 11);
  std::vector<double> y(n * m);
  for (auto _ : state) {
    op.apply_panel(x, y, m);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_FmmpApplyPanel)
    ->ArgsProduct({benchmark::CreateDenseRange(14, 22, 4), {1, 4, 8}});

// The bare span microkernels, per tier: arg0 = log2(span length), arg1 =
// tier (0 scalar, 1 avx2, 2 avx512 — unavailable tiers skip).  Shows the
// raw SIMD win over the scalar reference before cache effects.
void BM_SvKernelButterflySpan(benchmark::State& state) {
  const qs::transforms::SvKernels* table = nullptr;
  switch (state.range(1)) {
    case 0: table = &qs::transforms::scalar_sv_kernels(); break;
    case 1: table = qs::transforms::avx2_sv_kernels(); break;
    case 2: table = qs::transforms::avx512_sv_kernels(); break;
  }
  if (table == nullptr) {
    state.SkipWithError("kernel tier not available on this build/CPU");
    return;
  }
  const std::size_t cnt = std::size_t{1} << state.range(0);
  auto lo = random_vector(cnt, 14);
  auto hi = random_vector(cnt, 15);
  const qs::transforms::Factor2 f = qs::transforms::Factor2::uniform(0.01);
  for (auto _ : state) {
    table->butterfly_span(lo.data(), hi.data(), cnt, f);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * cnt));
  state.SetLabel(table->name);
}
BENCHMARK(BM_SvKernelButterflySpan)->ArgsProduct({{8, 12, 16}, {0, 1, 2}});

// The fused-level sv kernels: arg0 = log2(span length), arg1 = tier as
// above, arg2 = radix (4 = quad, 8 = oct).  Fusing two/three levels per
// sweep halves/thirds the loads+stores per butterfly, which is where most
// of the single-vector speedup lives.
void BM_SvKernelFusedSpan(benchmark::State& state) {
  const qs::transforms::SvKernels* table = nullptr;
  switch (state.range(1)) {
    case 0: table = &qs::transforms::scalar_sv_kernels(); break;
    case 1: table = qs::transforms::avx2_sv_kernels(); break;
    case 2: table = qs::transforms::avx512_sv_kernels(); break;
  }
  if (table == nullptr) {
    state.SkipWithError("kernel tier not available on this build/CPU");
    return;
  }
  const std::size_t cnt = std::size_t{1} << state.range(0);
  const std::size_t radix = static_cast<std::size_t>(state.range(2));
  auto block = random_vector(radix * cnt, 16);
  const qs::transforms::Factor2 f0 = qs::transforms::Factor2::uniform(0.01);
  const qs::transforms::Factor2 f1 = qs::transforms::Factor2::uniform(0.02);
  const qs::transforms::Factor2 f2 = qs::transforms::Factor2::uniform(0.03);
  for (auto _ : state) {
    double* q = block.data();
    if (radix == 4) {
      table->butterfly_quad_span(q, q + cnt, q + 2 * cnt, q + 3 * cnt, cnt,
                                 f0, f1);
    } else {
      table->butterfly_oct_span(q, cnt, cnt, f0, f1, f2);
    }
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(radix * cnt));
  state.SetLabel(table->name);
}
BENCHMARK(BM_SvKernelFusedSpan)
    ->ArgsProduct({{8, 12, 16}, {0, 1, 2}, {4, 8}});

// The whole banded apply per sv tier and radix: arg0 = nu, arg1 = tier
// (0 scalar, 1 avx2, 2 avx512, 3 automatic), arg2 = max fused radix.
// ns/element here is the fig2 "raw speed" number the tentpole targets.
void BM_BlockedButterflySvTier(benchmark::State& state) {
  using qs::transforms::SvKernel;
  const unsigned nu = static_cast<unsigned>(state.range(0));
  qs::transforms::BlockedPlan plan;
  switch (state.range(1)) {
    case 0: plan.sv_kernel = SvKernel::scalar; break;
    case 1: plan.sv_kernel = SvKernel::avx2; break;
    case 2: plan.sv_kernel = SvKernel::avx512; break;
    default: plan.sv_kernel = SvKernel::automatic; break;
  }
  plan.sv_max_radix = static_cast<unsigned>(state.range(2));
  if ((plan.sv_kernel == SvKernel::avx2 && qs::transforms::avx2_sv_kernels() == nullptr) ||
      (plan.sv_kernel == SvKernel::avx512 &&
       qs::transforms::avx512_sv_kernels() == nullptr)) {
    state.SkipWithError("kernel tier not available on this build/CPU");
    return;
  }
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  auto v = random_vector(std::size_t{1} << nu, 17);
  const auto& engine = qs::parallel::serial_engine();
  for (auto _ : state) {
    qs::transforms::apply_blocked_butterfly(v, model.site_factors(), engine,
                                            plan);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::size_t{1} << nu));
  state.SetLabel(qs::transforms::resolved_sv_kernel_name(plan.sv_kernel));
}
BENCHMARK(BM_BlockedButterflySvTier)
    ->ArgsProduct({{16, 22}, {0, 1, 2, 3}, {4, 8}});

void BM_XmvpApply(benchmark::State& state) {
  const unsigned nu = static_cast<unsigned>(state.range(0));
  const unsigned d = static_cast<unsigned>(state.range(1));
  const std::size_t n = std::size_t{1} << nu;
  const auto model = qs::core::MutationModel::uniform(nu, 0.01);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, 5);
  const qs::core::XmvpOperator op(model, landscape, d);
  auto x = random_vector(n, 6);
  std::vector<double> y(n);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["patterns"] = static_cast<double>(op.pattern_count());
}
BENCHMARK(BM_XmvpApply)
    ->Args({14, 1})
    ->Args({14, 3})
    ->Args({14, 5})
    ->Args({14, 14})
    ->Args({18, 1})
    ->Args({18, 5});

}  // namespace
