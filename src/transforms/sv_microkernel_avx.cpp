// AVX2 instantiation of the span microkernels.
//
// This translation unit is the only one compiled with -mavx2 (see
// src/CMakeLists.txt); it is added to the build only when the QS_ENABLE_SIMD
// probe passed, and its table is only selected when the running CPU reports
// avx2 — the rest of the library never executes AVX2 instructions.
//
// These deliberately do NOT use FMA: every output is a separate
// vmulpd/vmulpd/vaddpd, i.e. the exact two-rounding expression
// m00*t1 + m01*t2 of the scalar table.  The TU is built without -mfma and
// with -ffp-contract=off so the compiler cannot re-fuse them; the runtime
// probe therefore only needs avx2 (not fma), and the table is
// bit-identical to the scalar reference.
//
// The tree_* reductions keep the same promise by keeping the scalar tree's
// shape: leaves are the scalar expressions, and each 64-leaf block is
// reduced level by level with hadd (adjacent pairs) and 128-bit lane
// permutes, never by reassociating a sum.
#include "transforms/sv_microkernel.hpp"

#if defined(QS_HAVE_SV_AVX2_KERNELS)

#include <immintrin.h>

#include "transforms/sv_tree_blocks.hpp"

namespace qs::transforms {
namespace {

inline __attribute__((always_inline)) __m256d muladd4(__m256d a, __m256d x,
                                                      __m256d b, __m256d y) {
  return _mm256_add_pd(_mm256_mul_pd(a, x), _mm256_mul_pd(b, y));
}

void sv_butterfly_span_avx2(double* lo, double* hi, std::size_t cnt, Factor2 f) {
  const __m256d m00 = _mm256_set1_pd(f.m00);
  const __m256d m01 = _mm256_set1_pd(f.m01);
  const __m256d m10 = _mm256_set1_pd(f.m10);
  const __m256d m11 = _mm256_set1_pd(f.m11);
  std::size_t i = 0;
  for (; i + 4 <= cnt; i += 4) {
    const __m256d t1 = _mm256_loadu_pd(lo + i);
    const __m256d t2 = _mm256_loadu_pd(hi + i);
    _mm256_storeu_pd(lo + i, muladd4(m00, t1, m01, t2));
    _mm256_storeu_pd(hi + i, muladd4(m10, t1, m11, t2));
  }
  for (; i < cnt; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

void sv_butterfly_quad_span_avx2(double* r0, double* r1, double* r2, double* r3,
                                 std::size_t cnt, Factor2 fl, Factor2 fh) {
  const __m256d l00 = _mm256_set1_pd(fl.m00);
  const __m256d l01 = _mm256_set1_pd(fl.m01);
  const __m256d l10 = _mm256_set1_pd(fl.m10);
  const __m256d l11 = _mm256_set1_pd(fl.m11);
  const __m256d h00 = _mm256_set1_pd(fh.m00);
  const __m256d h01 = _mm256_set1_pd(fh.m01);
  const __m256d h10 = _mm256_set1_pd(fh.m10);
  const __m256d h11 = _mm256_set1_pd(fh.m11);
  std::size_t i = 0;
  for (; i + 4 <= cnt; i += 4) {
    const __m256d a = _mm256_loadu_pd(r0 + i);
    const __m256d b = _mm256_loadu_pd(r1 + i);
    const __m256d c = _mm256_loadu_pd(r2 + i);
    const __m256d d = _mm256_loadu_pd(r3 + i);
    const __m256d ab0 = muladd4(l00, a, l01, b);
    const __m256d ab1 = muladd4(l10, a, l11, b);
    const __m256d cd0 = muladd4(l00, c, l01, d);
    const __m256d cd1 = muladd4(l10, c, l11, d);
    _mm256_storeu_pd(r0 + i, muladd4(h00, ab0, h01, cd0));
    _mm256_storeu_pd(r1 + i, muladd4(h00, ab1, h01, cd1));
    _mm256_storeu_pd(r2 + i, muladd4(h10, ab0, h11, cd0));
    _mm256_storeu_pd(r3 + i, muladd4(h10, ab1, h11, cd1));
  }
  for (; i < cnt; ++i) {
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

inline __attribute__((always_inline)) void sv_bf2_avx2(__m256d& a, __m256d& b,
                                                       __m256d m00, __m256d m01,
                                                       __m256d m10, __m256d m11) {
  const __m256d t = a;
  a = muladd4(m00, t, m01, b);
  b = muladd4(m10, t, m11, b);
}

inline void sv_bf2_tail(double& a, double& b, Factor2 f) {
  const double t = a;
  a = f.m00 * t + f.m01 * b;
  b = f.m10 * t + f.m11 * b;
}

void sv_butterfly_oct_span_avx2(double* p, std::size_t stride, std::size_t cnt,
                                Factor2 f0, Factor2 f1, Factor2 f2) {
  const __m256d a00 = _mm256_set1_pd(f0.m00), a01 = _mm256_set1_pd(f0.m01);
  const __m256d a10 = _mm256_set1_pd(f0.m10), a11 = _mm256_set1_pd(f0.m11);
  const __m256d b00 = _mm256_set1_pd(f1.m00), b01 = _mm256_set1_pd(f1.m01);
  const __m256d b10 = _mm256_set1_pd(f1.m10), b11 = _mm256_set1_pd(f1.m11);
  const __m256d c00 = _mm256_set1_pd(f2.m00), c01 = _mm256_set1_pd(f2.m01);
  const __m256d c10 = _mm256_set1_pd(f2.m10), c11 = _mm256_set1_pd(f2.m11);
  double* r0 = p;
  double* r1 = p + stride;
  double* r2 = p + 2 * stride;
  double* r3 = p + 3 * stride;
  double* r4 = p + 4 * stride;
  double* r5 = p + 5 * stride;
  double* r6 = p + 6 * stride;
  double* r7 = p + 7 * stride;
  std::size_t i = 0;
  for (; i + 4 <= cnt; i += 4) {
    __m256d v0 = _mm256_loadu_pd(r0 + i);
    __m256d v1 = _mm256_loadu_pd(r1 + i);
    __m256d v2 = _mm256_loadu_pd(r2 + i);
    __m256d v3 = _mm256_loadu_pd(r3 + i);
    __m256d v4 = _mm256_loadu_pd(r4 + i);
    __m256d v5 = _mm256_loadu_pd(r5 + i);
    __m256d v6 = _mm256_loadu_pd(r6 + i);
    __m256d v7 = _mm256_loadu_pd(r7 + i);
    sv_bf2_avx2(v0, v1, a00, a01, a10, a11);
    sv_bf2_avx2(v2, v3, a00, a01, a10, a11);
    sv_bf2_avx2(v4, v5, a00, a01, a10, a11);
    sv_bf2_avx2(v6, v7, a00, a01, a10, a11);
    sv_bf2_avx2(v0, v2, b00, b01, b10, b11);
    sv_bf2_avx2(v1, v3, b00, b01, b10, b11);
    sv_bf2_avx2(v4, v6, b00, b01, b10, b11);
    sv_bf2_avx2(v5, v7, b00, b01, b10, b11);
    sv_bf2_avx2(v0, v4, c00, c01, c10, c11);
    sv_bf2_avx2(v1, v5, c00, c01, c10, c11);
    sv_bf2_avx2(v2, v6, c00, c01, c10, c11);
    sv_bf2_avx2(v3, v7, c00, c01, c10, c11);
    _mm256_storeu_pd(r0 + i, v0);
    _mm256_storeu_pd(r1 + i, v1);
    _mm256_storeu_pd(r2 + i, v2);
    _mm256_storeu_pd(r3 + i, v3);
    _mm256_storeu_pd(r4 + i, v4);
    _mm256_storeu_pd(r5 + i, v5);
    _mm256_storeu_pd(r6 + i, v6);
    _mm256_storeu_pd(r7 + i, v7);
  }
  for (; i < cnt; ++i) {
    double v0 = r0[i], v1 = r1[i], v2 = r2[i], v3 = r3[i];
    double v4 = r4[i], v5 = r5[i], v6 = r6[i], v7 = r7[i];
    sv_bf2_tail(v0, v1, f0);
    sv_bf2_tail(v2, v3, f0);
    sv_bf2_tail(v4, v5, f0);
    sv_bf2_tail(v6, v7, f0);
    sv_bf2_tail(v0, v2, f1);
    sv_bf2_tail(v1, v3, f1);
    sv_bf2_tail(v4, v6, f1);
    sv_bf2_tail(v5, v7, f1);
    sv_bf2_tail(v0, v4, f2);
    sv_bf2_tail(v1, v5, f2);
    sv_bf2_tail(v2, v6, f2);
    sv_bf2_tail(v3, v7, f2);
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

/// Levels 0 and 1 inside one 4-double vector, with the lane coefficients
/// of sv_rows8_stage_avx2.  Each level swaps lanes with their partners and
/// blends, so the first product always takes the pair's lower element and
/// the second its higher one.
inline __attribute__((always_inline)) __m256d sv_levels01_avx2(__m256d v,
                                                             const __m256d* c) {
  __m256d sw = _mm256_permute_pd(v, 0x5);  // swap adjacent lanes
  v = muladd4(c[0], _mm256_blend_pd(v, sw, 0xA), c[1], _mm256_blend_pd(sw, v, 0xA));
  sw = _mm256_permute2f128_pd(v, v, 0x01);  // swap the 128-bit halves
  return muladd4(c[2], _mm256_blend_pd(v, sw, 0xC), c[3],
                 _mm256_blend_pd(sw, v, 0xC));
}

void sv_rows8_stage_avx2(double* y, const double* x, const double* s,
                         std::size_t rows, Factor2 f0, Factor2 f1, Factor2 f2) {
  // Per level a pair's lower lane computes m00*lo + m01*hi and its higher
  // lane m10*lo + m11*hi: the scalar operand order on every lane, never a
  // commuted sum.  Level 2 pairs the row's two vectors lane by lane.
  const __m256d c[4] = {_mm256_setr_pd(f0.m00, f0.m10, f0.m00, f0.m10),
                        _mm256_setr_pd(f0.m01, f0.m11, f0.m01, f0.m11),
                        _mm256_setr_pd(f1.m00, f1.m00, f1.m10, f1.m10),
                        _mm256_setr_pd(f1.m01, f1.m01, f1.m11, f1.m11)};
  const __m256d c00 = _mm256_set1_pd(f2.m00), c01 = _mm256_set1_pd(f2.m01);
  const __m256d c10 = _mm256_set1_pd(f2.m10), c11 = _mm256_set1_pd(f2.m11);
  for (std::size_t r = 0; r < rows; ++r) {
    __m256d u = _mm256_loadu_pd(x + 8 * r);
    __m256d w = _mm256_loadu_pd(x + 8 * r + 4);
    if (s != nullptr) {
      u = _mm256_mul_pd(_mm256_loadu_pd(s + 8 * r), u);
      w = _mm256_mul_pd(_mm256_loadu_pd(s + 8 * r + 4), w);
    }
    u = sv_levels01_avx2(u, c);
    w = sv_levels01_avx2(w, c);
    _mm256_storeu_pd(y + 8 * r, muladd4(c00, u, c01, w));
    _mm256_storeu_pd(y + 8 * r + 4, muladd4(c10, u, c11, w));
  }
}

void sv_mul_span_avx2(double* y, const double* x, const double* s,
                      std::size_t cnt) {
  std::size_t i = 0;
  for (; i + 4 <= cnt; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(s + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < cnt; ++i) y[i] = s[i] * x[i];
}

void sv_mul_rows_broadcast_avx2(double* y, const double* x, const double* s,
                                std::size_t rows, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d sr = _mm256_set1_pd(s[r]);
    const double* xr = x + r * m;
    double* yr = y + r * m;
    std::size_t c = 0;
    for (; c + 4 <= m; c += 4) {
      _mm256_storeu_pd(yr + c, _mm256_mul_pd(sr, _mm256_loadu_pd(xr + c)));
    }
    for (; c < m; ++c) yr[c] = s[r] * xr[c];
  }
}

/// Transposes the 4 x 4 block whose rows are v[0..3] in place: v[i] lane j
/// becomes the old v[j] lane i.
inline __attribute__((always_inline)) void transpose4x4(__m256d* v) {
  const __m256d t0 = _mm256_unpacklo_pd(v[0], v[1]);  // v0[0] v1[0] v0[2] v1[2]
  const __m256d t1 = _mm256_unpackhi_pd(v[0], v[1]);  // v0[1] v1[1] v0[3] v1[3]
  const __m256d t2 = _mm256_unpacklo_pd(v[2], v[3]);
  const __m256d t3 = _mm256_unpackhi_pd(v[2], v[3]);
  v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

void sv_mul_rows_columns_avx2(double* y, const double* x, const double* const* s,
                              std::size_t row0, std::size_t rows, std::size_t m) {
  // Four rows at a time: each group of four columns loads four elements of
  // each column stream and transposes them into four panel-row pieces (an
  // m = 8 panel runs its 8 x 4 block as two 4 x 4 transposes).  Columns
  // past the last whole group, and rows past the last whole four, go one
  // element at a time.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    std::size_t c = 0;
    for (; c + 4 <= m; c += 4) {
      __m256d v[4];
      for (std::size_t j = 0; j < 4; ++j) v[j] = _mm256_loadu_pd(s[c + j] + row0 + r);
      transpose4x4(v);
      for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t at = (r + i) * m + c;
        _mm256_storeu_pd(y + at, _mm256_mul_pd(v[i], _mm256_loadu_pd(x + at)));
      }
    }
    for (; c < m; ++c) {
      for (std::size_t i = r; i < r + 4; ++i) y[i * m + c] = s[c][row0 + i] * x[i * m + c];
    }
  }
  for (; r < rows; ++r) {
    for (std::size_t c = 0; c < m; ++c) y[r * m + c] = s[c][row0 + r] * x[r * m + c];
  }
}

/// Up to three leaf vectors of four consecutive elements.
struct Leaves4 {
  __m256d a;
  __m256d b;
  __m256d c;
};

/// Two tree levels at once: a, b, c, d hold 16 consecutive partials of one
/// level; the result holds the 4 consecutive partials two levels up,
/// ((p0+p1)+(p2+p3)), ..., ((p12+p13)+(p14+p15)).
inline __attribute__((always_inline)) __m256d tree_step4(__m256d a, __m256d b,
                                                         __m256d c, __m256d d) {
  const __m256d ab = _mm256_hadd_pd(a, b);  // a0+a1, b0+b1, a2+a3, b2+b3
  const __m256d cd = _mm256_hadd_pd(c, d);
  return _mm256_add_pd(_mm256_permute2f128_pd(ab, cd, 0x20),
                       _mm256_permute2f128_pd(ab, cd, 0x31));
}

/// The last two levels: (p0+p1)+(p2+p3).
inline __attribute__((always_inline)) double tree_finish4(__m256d p) {
  const __m256d h = _mm256_hadd_pd(p, p);  // p0+p1, p0+p1, p2+p3, p2+p3
  return _mm_cvtsd_f64(
      _mm_add_sd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1)));
}

/// The first K sums of leaf(i).{a, b, c} over [0, n), n blockwise.  leaf(i)
/// returns the leaves of elements i..i+3 and runs exactly once per 4
/// elements, in ascending order.
template <std::size_t K, typename Leaf>
TreeSums tree_blocks_avx2(std::size_t n, const Leaf& leaf) {
  double pending[K][kTreeCounterDepth] = {};
  const std::size_t blocks = n / kTreeBlock;
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t base = blk * kTreeBlock;
    __m256d q[K][4];
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t i = base + 16 * j;
      const Leaves4 l0 = leaf(i);
      const Leaves4 l1 = leaf(i + 4);
      const Leaves4 l2 = leaf(i + 8);
      const Leaves4 l3 = leaf(i + 12);
      q[0][j] = tree_step4(l0.a, l1.a, l2.a, l3.a);
      if constexpr (K > 1) q[1][j] = tree_step4(l0.b, l1.b, l2.b, l3.b);
      if constexpr (K > 2) q[2][j] = tree_step4(l0.c, l1.c, l2.c, l3.c);
    }
    for (std::size_t k = 0; k < K; ++k) {
      tree_counter_push(pending[k], blk,
                        tree_finish4(tree_step4(q[k][0], q[k][1], q[k][2], q[k][3])));
    }
  }
  double out[3] = {};
  for (std::size_t k = 0; k < K; ++k) out[k] = tree_counter_root(pending[k], blocks);
  return {out[0], out[1], out[2]};
}

template <bool Shift>
TreeSums check_sums_avx2(const double* x, const double* y, std::size_t n,
                         double mu) {
  const __m256d shift = _mm256_set1_pd(mu);
  const __m256d sign = _mm256_set1_pd(-0.0);
  return tree_blocks_avx2<3>(n, [=](std::size_t i) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d z = Shift ? _mm256_sub_pd(yv, _mm256_mul_pd(shift, xv)) : yv;
    return Leaves4{_mm256_mul_pd(xv, xv), _mm256_mul_pd(xv, yv),
                   _mm256_andnot_pd(sign, z)};
  });
}

TreeSums sv_tree_check_sums_avx2(const double* x, const double* y,
                                 std::size_t n, double mu) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_check_sums(x, y, n, mu);
  return mu != 0.0 ? check_sums_avx2<true>(x, y, n, mu)
                   : check_sums_avx2<false>(x, y, n, mu);
}

template <bool Shift>
double residual_update_avx2(const double* x, double* y, std::size_t n,
                            double lambda, double mu, double inv) {
  const __m256d lam = _mm256_set1_pd(lambda);
  const __m256d shift = _mm256_set1_pd(mu);
  const __m256d scale = _mm256_set1_pd(inv);
  return tree_blocks_avx2<1>(n, [=](std::size_t i) {
           const __m256d xv = _mm256_loadu_pd(x + i);
           const __m256d yv = _mm256_loadu_pd(y + i);
           const __m256d r = _mm256_sub_pd(yv, _mm256_mul_pd(lam, xv));
           const __m256d z =
               Shift ? _mm256_sub_pd(yv, _mm256_mul_pd(shift, xv)) : yv;
           _mm256_storeu_pd(y + i, _mm256_mul_pd(z, scale));
           const __m256d r2 = _mm256_mul_pd(r, r);
           return Leaves4{r2, r2, r2};
         }).first;
}

double sv_tree_residual_update_avx2(const double* x, double* y, std::size_t n,
                                    double lambda, double mu, double inv) {
  if (!tree_blockwise(n)) {
    return scalar_sv_kernels().tree_residual_update(x, y, n, lambda, mu, inv);
  }
  return mu != 0.0 ? residual_update_avx2<true>(x, y, n, lambda, mu, inv)
                   : residual_update_avx2<false>(x, y, n, lambda, mu, inv);
}

TreeSums sv_tree_sign_sums_avx2(const double* v, std::size_t n) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_sign_sums(v, n);
  // maxpd/minpd return the second operand for a NaN or equal zeros: +0,
  // as positive_part/negative_part do.
  const __m256d zero = _mm256_setzero_pd();
  return tree_blocks_avx2<2>(n, [v, zero](std::size_t i) {
    const __m256d a = _mm256_loadu_pd(v + i);
    return Leaves4{_mm256_max_pd(a, zero), _mm256_min_pd(a, zero), zero};
  });
}

double sv_tree_abs_sum_avx2(const double* v, std::size_t n) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_abs_sum(v, n);
  const __m256d sign = _mm256_set1_pd(-0.0);
  return tree_blocks_avx2<1>(n, [v, sign](std::size_t i) {
           const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(v + i));
           return Leaves4{a, a, a};
         }).first;
}

constexpr SvKernels kAvx2SvKernels{
    sv_butterfly_span_avx2, sv_butterfly_quad_span_avx2,
    sv_butterfly_oct_span_avx2, sv_rows8_stage_avx2, sv_mul_span_avx2,
    sv_mul_rows_broadcast_avx2, sv_mul_rows_columns_avx2,
    sv_tree_check_sums_avx2, sv_tree_residual_update_avx2, panel8_check_sums,
    panel8_residual_update, panel8_sign_sums, sv_tree_sign_sums_avx2,
    sv_tree_abs_sum_avx2, "avx2",
};

}  // namespace

const SvKernels* sv_avx2_table() {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return &kAvx2SvKernels;
  return nullptr;
#else
  // No runtime probe available: be conservative and stay on scalar.
  return nullptr;
#endif
}

}  // namespace qs::transforms

#endif  // QS_HAVE_SV_AVX2_KERNELS
