#include "transforms/sv_microkernel.hpp"

#include <cmath>

#include "transforms/sv_tree_blocks.hpp"

namespace qs::transforms {
namespace {

// Scalar reference kernels: the expressions of the paper's butterfly (two
// roundings per output: multiply, multiply, add); the SIMD tables keep the
// same expression per element, so every tier is bit-identical.

void sv_butterfly_span_scalar(double* lo, double* hi, std::size_t cnt, Factor2 f) {
  for (std::size_t i = 0; i < cnt; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

void sv_butterfly_quad_span_scalar(double* r0, double* r1, double* r2,
                                   double* r3, std::size_t cnt, Factor2 fl,
                                   Factor2 fh) {
  for (std::size_t i = 0; i < cnt; ++i) {
    const double a = r0[i];
    const double b = r1[i];
    const double c = r2[i];
    const double d = r3[i];
    const double ab0 = fl.m00 * a + fl.m01 * b;
    const double ab1 = fl.m10 * a + fl.m11 * b;
    const double cd0 = fl.m00 * c + fl.m01 * d;
    const double cd1 = fl.m10 * c + fl.m11 * d;
    r0[i] = fh.m00 * ab0 + fh.m01 * cd0;
    r1[i] = fh.m00 * ab1 + fh.m01 * cd1;
    r2[i] = fh.m10 * ab0 + fh.m11 * cd0;
    r3[i] = fh.m10 * ab1 + fh.m11 * cd1;
  }
}

inline void sv_bf2_scalar(double& a, double& b, Factor2 f) {
  const double t = a;
  a = f.m00 * t + f.m01 * b;
  b = f.m10 * t + f.m11 * b;
}

void sv_butterfly_oct_span_scalar(double* p, std::size_t stride, std::size_t cnt,
                                  Factor2 f0, Factor2 f1, Factor2 f2) {
  double* r0 = p;
  double* r1 = p + stride;
  double* r2 = p + 2 * stride;
  double* r3 = p + 3 * stride;
  double* r4 = p + 4 * stride;
  double* r5 = p + 5 * stride;
  double* r6 = p + 6 * stride;
  double* r7 = p + 7 * stride;
  for (std::size_t i = 0; i < cnt; ++i) {
    double v0 = r0[i], v1 = r1[i], v2 = r2[i], v3 = r3[i];
    double v4 = r4[i], v5 = r5[i], v6 = r6[i], v7 = r7[i];
    sv_bf2_scalar(v0, v1, f0);
    sv_bf2_scalar(v2, v3, f0);
    sv_bf2_scalar(v4, v5, f0);
    sv_bf2_scalar(v6, v7, f0);
    sv_bf2_scalar(v0, v2, f1);
    sv_bf2_scalar(v1, v3, f1);
    sv_bf2_scalar(v4, v6, f1);
    sv_bf2_scalar(v5, v7, f1);
    sv_bf2_scalar(v0, v4, f2);
    sv_bf2_scalar(v1, v5, f2);
    sv_bf2_scalar(v2, v6, f2);
    sv_bf2_scalar(v3, v7, f2);
    r0[i] = v0;
    r1[i] = v1;
    r2[i] = v2;
    r3[i] = v3;
    r4[i] = v4;
    r5[i] = v5;
    r6[i] = v6;
    r7[i] = v7;
  }
}

void sv_rows8_stage_scalar(double* y, const double* x, const double* s,
                           std::size_t rows, Factor2 f0, Factor2 f1,
                           Factor2 f2) {
  for (std::size_t i = 0; i < 8 * rows; ++i) y[i] = s != nullptr ? s[i] * x[i] : x[i];
  for (std::size_t r = 0; r < rows; ++r) {
    sv_butterfly_oct_span_scalar(y + 8 * r, 1, 1, f0, f1, f2);
  }
}

void sv_mul_span_scalar(double* y, const double* x, const double* s,
                        std::size_t cnt) {
  for (std::size_t i = 0; i < cnt; ++i) y[i] = s[i] * x[i];
}

void sv_mul_rows_broadcast_scalar(double* y, const double* x, const double* s,
                                  std::size_t rows, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double sr = s[r];
    for (std::size_t c = 0; c < m; ++c) y[r * m + c] = sr * x[r * m + c];
  }
}

void sv_mul_rows_columns_scalar(double* y, const double* x, const double* const* s,
                                std::size_t row0, std::size_t rows, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < m; ++c) y[r * m + c] = s[c][row0 + r] * x[r * m + c];
  }
}

// Scalar tree reductions: a single vector is the one-column panel, whose
// column sum over rows is the vector's tree sum (transforms/sv_tree_blocks).

TreeSums sv_tree_check_sums_scalar(const double* x, const double* y,
                                   std::size_t n, double mu) {
  double s[3];
  panel_check_sums<1>(x, y, n, 1, mu, s, nullptr);
  return {s[0], s[1], s[2]};
}

double sv_tree_residual_update_scalar(const double* x, double* y, std::size_t n,
                                      double lambda, double mu, double inv) {
  double s;
  panel_residual_update<1>(x, y, n, 1, &lambda, mu, &inv, &s, nullptr);
  return s;
}

TreeSums sv_tree_sign_sums_scalar(const double* v, std::size_t n) {
  double s[2];
  panel_sign_sums<1>(v, n, 1, s, nullptr);
  return {s[0], s[1], 0.0};
}

double sv_tree_abs_sum_scalar(const double* v, std::size_t n) {
  const auto leaf = [v](std::size_t i, double* out) { *out = std::abs(v[i]); };
  double s;
  tree_rows<1>(n, leaf, &s);
  return s;
}

constexpr SvKernels kScalarSvKernels{
    sv_butterfly_span_scalar, sv_butterfly_quad_span_scalar,
    sv_butterfly_oct_span_scalar, sv_rows8_stage_scalar, sv_mul_span_scalar,
    sv_mul_rows_broadcast_scalar, sv_mul_rows_columns_scalar,
    sv_tree_check_sums_scalar, sv_tree_residual_update_scalar, panel8_check_sums,
    panel8_residual_update, panel8_sign_sums, sv_tree_sign_sums_scalar,
    sv_tree_abs_sum_scalar, "scalar",
};

}  // namespace

const SvKernels& scalar_sv_kernels() { return kScalarSvKernels; }

#if defined(QS_HAVE_SV_AVX2_KERNELS)
// Defined in sv_microkernel_avx.cpp (compiled with -mavx2 -ffp-contract=off,
// no -mfma); returns null when the running CPU lacks avx2.
const SvKernels* sv_avx2_table();
#endif
#if defined(QS_HAVE_SV_AVX512_KERNELS)
// Defined in sv_microkernel_avx512.cpp (compiled with -mavx512f
// -ffp-contract=off); returns null when the running CPU lacks avx512f.
const SvKernels* sv_avx512_table();
#endif

const SvKernels* avx2_sv_kernels() {
#if defined(QS_HAVE_SV_AVX2_KERNELS)
  return sv_avx2_table();
#else
  return nullptr;
#endif
}

const SvKernels* avx512_sv_kernels() {
#if defined(QS_HAVE_SV_AVX512_KERNELS)
  return sv_avx512_table();
#else
  return nullptr;
#endif
}

const SvKernels* best_sv_kernels() {
  // Resolved once, widest first; the probe is cheap but there is no reason
  // to repeat it.
  static const SvKernels* best = [] {
    if (const SvKernels* k = avx512_sv_kernels(); k != nullptr) return k;
    return avx2_sv_kernels();
  }();
  return best;
}

const SvKernels& resolve_sv_kernels(SvKernel choice) {
  const SvKernels* k = nullptr;
  switch (choice) {
    case SvKernel::automatic:
      k = best_sv_kernels();
      break;
    case SvKernel::scalar:
      break;
    case SvKernel::avx2:
      k = avx2_sv_kernels();
      break;
    case SvKernel::avx512:
      k = avx512_sv_kernels();
      break;
  }
  return k != nullptr ? *k : scalar_sv_kernels();
}

const char* to_string(SvKernel choice) {
  switch (choice) {
    case SvKernel::automatic:
      return "automatic";
    case SvKernel::scalar:
      return "scalar";
    case SvKernel::avx2:
      return "avx2";
    case SvKernel::avx512:
      return "avx512";
  }
  return "automatic";
}

const char* resolved_sv_kernel_name(SvKernel choice) {
  return resolve_sv_kernels(choice).name;
}

}  // namespace qs::transforms
