// AVX-512F instantiation of the span microkernels.
//
// Compiled only when the top-level QS_ENABLE_SIMD avx512f probe passed; the
// table is only selected when the running CPU reports avx512f.  Like the
// AVX2 translation unit, this deliberately avoids FMA: separate vmulpd +
// vaddpd reproduce the scalar two-rounding expression m00*t1 + m01*t2, the
// TU is built without -mfma and with -ffp-contract=off, and the result is
// bit-identical to the scalar table.
//
// The tree_* reductions keep the scalar tree's shape: each 64-leaf block is
// reduced level by level with even/odd lane permutes that add adjacent
// pairs, in order, never by reassociating a sum, and eight blocks share
// the levels above that in one register.
#include "transforms/sv_microkernel.hpp"

#if defined(QS_HAVE_SV_AVX512_KERNELS)

#include <immintrin.h>

#include <type_traits>

#include "transforms/sv_tree_blocks.hpp"

namespace qs::transforms {
namespace {

inline __attribute__((always_inline)) __m512d muladd8(__m512d a, __m512d x,
                                                      __m512d b, __m512d y) {
  return _mm512_add_pd(_mm512_mul_pd(a, x), _mm512_mul_pd(b, y));
}

void sv_butterfly_span_avx512(double* lo, double* hi, std::size_t cnt,
                              Factor2 f) {
  const __m512d m00 = _mm512_set1_pd(f.m00);
  const __m512d m01 = _mm512_set1_pd(f.m01);
  const __m512d m10 = _mm512_set1_pd(f.m10);
  const __m512d m11 = _mm512_set1_pd(f.m11);
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m512d t1 = _mm512_loadu_pd(lo + i);
    const __m512d t2 = _mm512_loadu_pd(hi + i);
    _mm512_storeu_pd(lo + i, muladd8(m00, t1, m01, t2));
    _mm512_storeu_pd(hi + i, muladd8(m10, t1, m11, t2));
  }
  for (; i < cnt; ++i) {
    const double t1 = lo[i];
    const double t2 = hi[i];
    lo[i] = f.m00 * t1 + f.m01 * t2;
    hi[i] = f.m10 * t1 + f.m11 * t2;
  }
}

void sv_butterfly_quad_span_avx512(double* r0, double* r1, double* r2,
                                   double* r3, std::size_t cnt, Factor2 fl,
                                   Factor2 fh) {
  const __m512d l00 = _mm512_set1_pd(fl.m00);
  const __m512d l01 = _mm512_set1_pd(fl.m01);
  const __m512d l10 = _mm512_set1_pd(fl.m10);
  const __m512d l11 = _mm512_set1_pd(fl.m11);
  const __m512d h00 = _mm512_set1_pd(fh.m00);
  const __m512d h01 = _mm512_set1_pd(fh.m01);
  const __m512d h10 = _mm512_set1_pd(fh.m10);
  const __m512d h11 = _mm512_set1_pd(fh.m11);
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m512d a = _mm512_loadu_pd(r0 + i);
    const __m512d b = _mm512_loadu_pd(r1 + i);
    const __m512d c = _mm512_loadu_pd(r2 + i);
    const __m512d d = _mm512_loadu_pd(r3 + i);
    const __m512d ab0 = muladd8(l00, a, l01, b);
    const __m512d ab1 = muladd8(l10, a, l11, b);
    const __m512d cd0 = muladd8(l00, c, l01, d);
    const __m512d cd1 = muladd8(l10, c, l11, d);
    _mm512_storeu_pd(r0 + i, muladd8(h00, ab0, h01, cd0));
    _mm512_storeu_pd(r1 + i, muladd8(h00, ab1, h01, cd1));
    _mm512_storeu_pd(r2 + i, muladd8(h10, ab0, h11, cd0));
    _mm512_storeu_pd(r3 + i, muladd8(h10, ab1, h11, cd1));
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

inline __attribute__((always_inline)) void sv_bf2_avx512(
    __m512d& a, __m512d& b, __m512d m00, __m512d m01, __m512d m10,
    __m512d m11) {
  const __m512d t = a;
  a = muladd8(m00, t, m01, b);
  b = muladd8(m10, t, m11, b);
}

inline void sv_bf2_tail(double& a, double& b, Factor2 f) {
  const double t = a;
  a = f.m00 * t + f.m01 * b;
  b = f.m10 * t + f.m11 * b;
}

void sv_butterfly_oct_span_avx512(double* p, std::size_t stride,
                                  std::size_t cnt, Factor2 f0, Factor2 f1,
                                  Factor2 f2) {
  const __m512d a00 = _mm512_set1_pd(f0.m00), a01 = _mm512_set1_pd(f0.m01);
  const __m512d a10 = _mm512_set1_pd(f0.m10), a11 = _mm512_set1_pd(f0.m11);
  const __m512d b00 = _mm512_set1_pd(f1.m00), b01 = _mm512_set1_pd(f1.m01);
  const __m512d b10 = _mm512_set1_pd(f1.m10), b11 = _mm512_set1_pd(f1.m11);
  const __m512d c00 = _mm512_set1_pd(f2.m00), c01 = _mm512_set1_pd(f2.m01);
  const __m512d c10 = _mm512_set1_pd(f2.m10), c11 = _mm512_set1_pd(f2.m11);
  double* r0 = p;
  double* r1 = p + stride;
  double* r2 = p + 2 * stride;
  double* r3 = p + 3 * stride;
  double* r4 = p + 4 * stride;
  double* r5 = p + 5 * stride;
  double* r6 = p + 6 * stride;
  double* r7 = p + 7 * stride;
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    __m512d v0 = _mm512_loadu_pd(r0 + i);
    __m512d v1 = _mm512_loadu_pd(r1 + i);
    __m512d v2 = _mm512_loadu_pd(r2 + i);
    __m512d v3 = _mm512_loadu_pd(r3 + i);
    __m512d v4 = _mm512_loadu_pd(r4 + i);
    __m512d v5 = _mm512_loadu_pd(r5 + i);
    __m512d v6 = _mm512_loadu_pd(r6 + i);
    __m512d v7 = _mm512_loadu_pd(r7 + i);
    sv_bf2_avx512(v0, v1, a00, a01, a10, a11);
    sv_bf2_avx512(v2, v3, a00, a01, a10, a11);
    sv_bf2_avx512(v4, v5, a00, a01, a10, a11);
    sv_bf2_avx512(v6, v7, a00, a01, a10, a11);
    sv_bf2_avx512(v0, v2, b00, b01, b10, b11);
    sv_bf2_avx512(v1, v3, b00, b01, b10, b11);
    sv_bf2_avx512(v4, v6, b00, b01, b10, b11);
    sv_bf2_avx512(v5, v7, b00, b01, b10, b11);
    sv_bf2_avx512(v0, v4, c00, c01, c10, c11);
    sv_bf2_avx512(v1, v5, c00, c01, c10, c11);
    sv_bf2_avx512(v2, v6, c00, c01, c10, c11);
    sv_bf2_avx512(v3, v7, c00, c01, c10, c11);
    _mm512_storeu_pd(r0 + i, v0);
    _mm512_storeu_pd(r1 + i, v1);
    _mm512_storeu_pd(r2 + i, v2);
    _mm512_storeu_pd(r3 + i, v3);
    _mm512_storeu_pd(r4 + i, v4);
    _mm512_storeu_pd(r5 + i, v5);
    _mm512_storeu_pd(r6 + i, v6);
    _mm512_storeu_pd(r7 + i, v7);
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

void sv_rows8_stage_avx512(double* y, const double* x, const double* s,
                           std::size_t rows, Factor2 f0, Factor2 f1,
                           Factor2 f2) {
  // Level l pairs the lanes that differ in bit l (kHi marks the higher
  // lane).  Two masked lane swaps give every lane its pair's lower element
  // (lo) and higher element (hi); with lane coefficients m00 / m01 on lower
  // and m10 / m11 on higher lanes, c_lo*lo + c_hi*hi is the scalar
  // expression in the scalar operand order on every lane, never a commuted
  // sum.
  constexpr __mmask8 kHi0 = 0xAA, kHi1 = 0xCC, kHi2 = 0xF0;
  const auto coeff = [](double lower, double higher, __mmask8 hi_lanes) {
    return _mm512_mask_blend_pd(hi_lanes, _mm512_set1_pd(lower),
                                _mm512_set1_pd(higher));
  };
  const __m512d a_lo = coeff(f0.m00, f0.m10, kHi0), a_hi = coeff(f0.m01, f0.m11, kHi0);
  const __m512d b_lo = coeff(f1.m00, f1.m10, kHi1), b_hi = coeff(f1.m01, f1.m11, kHi1);
  const __m512d c_lo = coeff(f2.m00, f2.m10, kHi2), c_hi = coeff(f2.m01, f2.m11, kHi2);
  for (std::size_t r = 0; r < rows; ++r) {
    __m512d v = _mm512_loadu_pd(x + 8 * r);
    if (s != nullptr) v = _mm512_mul_pd(_mm512_loadu_pd(s + 8 * r), v);
    v = muladd8(a_lo, _mm512_mask_permute_pd(v, kHi0, v, 0x55), a_hi,
                _mm512_mask_permute_pd(v, __mmask8(~kHi0), v, 0x55));
    v = muladd8(b_lo, _mm512_mask_permutex_pd(v, kHi1, v, 0x4E), b_hi,
                _mm512_mask_permutex_pd(v, __mmask8(~kHi1), v, 0x4E));
    v = muladd8(c_lo, _mm512_mask_shuffle_f64x2(v, kHi2, v, v, 0x4E), c_hi,
                _mm512_mask_shuffle_f64x2(v, __mmask8(~kHi2), v, v, 0x4E));
    _mm512_storeu_pd(y + 8 * r, v);
  }
}

void sv_mul_span_avx512(double* y, const double* x, const double* s,
                        std::size_t cnt) {
  std::size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_mul_pd(_mm512_loadu_pd(s + i), _mm512_loadu_pd(x + i)));
  }
  for (; i < cnt; ++i) y[i] = s[i] * x[i];
}

void sv_mul_rows_broadcast_avx512(double* y, const double* x, const double* s,
                                  std::size_t rows, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    const __m512d sr = _mm512_set1_pd(s[r]);
    const double* xr = x + r * m;
    double* yr = y + r * m;
    std::size_t c = 0;
    for (; c + 8 <= m; c += 8) {
      _mm512_storeu_pd(yr + c, _mm512_mul_pd(sr, _mm512_loadu_pd(xr + c)));
    }
    for (; c < m; ++c) yr[c] = s[r] * xr[c];
  }
}

/// Transposes the 8 x 8 block whose rows are v[0..7] in place: v[i] lane j
/// becomes the old v[j] lane i.  Unpacks pair lanes of neighbouring rows,
/// then two rounds of 128-bit lane shuffles gather each row.  (The
/// all-lanes maskz forms are the plain instructions; GCC 12's unmasked
/// intrinsics warn about their undefined pass-through operand.)
inline __attribute__((always_inline)) void transpose8x8(__m512d* v) {
  constexpr __mmask8 kAll = 0xFF;
  __m512d t[8];
  for (int k = 0; k < 8; k += 2) {
    t[k] = _mm512_maskz_unpacklo_pd(kAll, v[k], v[k + 1]);      // (vk[2l], vk+1[2l])
    t[k + 1] = _mm512_maskz_unpackhi_pd(kAll, v[k], v[k + 1]);  // (vk[2l+1], vk+1[2l+1])
  }
  const auto lanes = [](__m512d a, __m512d b, auto imm) {
    return _mm512_maskz_shuffle_f64x2(kAll, a, b, decltype(imm)::value);
  };
  using Even = std::integral_constant<int, 0x88>;  // 128-bit lanes 0, 2 of a, b
  using Odd = std::integral_constant<int, 0xDD>;   // lanes 1, 3
  for (int odd = 0; odd < 2; ++odd) {
    const __m512d u0 = lanes(t[odd], t[2 + odd], Even{});
    const __m512d u1 = lanes(t[odd], t[2 + odd], Odd{});
    const __m512d u2 = lanes(t[4 + odd], t[6 + odd], Even{});
    const __m512d u3 = lanes(t[4 + odd], t[6 + odd], Odd{});
    v[odd] = lanes(u0, u2, Even{});
    v[2 + odd] = lanes(u1, u3, Even{});
    v[4 + odd] = lanes(u0, u2, Odd{});
    v[6 + odd] = lanes(u1, u3, Odd{});
  }
}

void sv_mul_rows_columns_avx512(double* y, const double* x, const double* const* s,
                                std::size_t row0, std::size_t rows, std::size_t m) {
  // Eight rows at a time: each group of eight columns loads eight elements
  // of each column stream and transposes them into eight panel-row pieces.
  // Columns past the last whole group, and rows past the last whole eight,
  // go one element at a time.
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    std::size_t c = 0;
    for (; c + 8 <= m; c += 8) {
      __m512d v[8];
      for (std::size_t j = 0; j < 8; ++j) v[j] = _mm512_loadu_pd(s[c + j] + row0 + r);
      transpose8x8(v);
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t at = (r + i) * m + c;
        _mm512_storeu_pd(y + at, _mm512_mul_pd(v[i], _mm512_loadu_pd(x + at)));
      }
    }
    for (; c < m; ++c) {
      for (std::size_t i = r; i < r + 8; ++i) y[i * m + c] = s[c][row0 + i] * x[i * m + c];
    }
  }
  for (; r < rows; ++r) {
    for (std::size_t c = 0; c < m; ++c) y[r * m + c] = s[c][row0 + r] * x[r * m + c];
  }
}

/// Up to three vectors of eight partials.
struct Leaves8 {
  __m512d a;
  __m512d b;
  __m512d c;
};

/// Lane indices of the even and odd elements of two vectors (16
/// consecutive values).  Built where used, not at namespace scope, so no
/// AVX-512 instruction runs during static initialisation.
inline __attribute__((always_inline)) __m512i even_lanes() {
  return _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
}
inline __attribute__((always_inline)) __m512i odd_lanes() {
  return _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
}

/// One tree level: a and b hold 16 consecutive partials; the result holds
/// the 8 consecutive pair sums a0+a1, a2+a3, ..., b6+b7.
inline __attribute__((always_inline)) __m512d tree_pair8(__m512d a, __m512d b) {
  return _mm512_add_pd(_mm512_permutex2var_pd(a, even_lanes(), b),
                       _mm512_permutex2var_pd(a, odd_lanes(), b));
}

/// The last three levels over 8 consecutive partials:
/// ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)), left in lane 0.
inline __attribute__((always_inline)) double tree_finish8(__m512d p) {
  const __m512d q = tree_pair8(p, p);  // lanes 0-3: p0+p1, ..., p6+p7
  const __m512d h = tree_pair8(q, q);  // lanes 0-1: (p0+p1)+(p2+p3), ...
  return _mm512_cvtsd_f64(tree_pair8(h, h));
}

/// The first K sums over [0, n), n blockwise.  pairs(i) returns, in .a, .b
/// and .c, the tree's first level over elements i..i+15 — the 8 sums of
/// adjacent leaf pairs — and runs exactly once per 16 elements, in
/// ascending order.  A block's three further levels leave its 8 octet sums
/// in one vector; eight blocks (512 elements, a complete subtree) then
/// share the next six levels — lane b of the level-6 vector is block b's
/// sum — so one counter push serves 512 elements.  Below eight blocks each
/// block finishes alone.
template <std::size_t K, typename Pairs>
TreeSums tree_blocks_avx512(std::size_t n, const Pairs& pairs) {
  double pending[K][kTreeCounterDepth] = {};
  const auto octets = [&pairs](std::size_t base, __m512d* o) {
    const Leaves8 p0 = pairs(base);
    const Leaves8 p1 = pairs(base + 16);
    const Leaves8 p2 = pairs(base + 32);
    const Leaves8 p3 = pairs(base + 48);
    o[0] = tree_pair8(tree_pair8(p0.a, p1.a), tree_pair8(p2.a, p3.a));
    if constexpr (K > 1) {
      o[1] = tree_pair8(tree_pair8(p0.b, p1.b), tree_pair8(p2.b, p3.b));
    }
    if constexpr (K > 2) {
      o[2] = tree_pair8(tree_pair8(p0.c, p1.c), tree_pair8(p2.c, p3.c));
    }
  };
  const std::size_t blocks = n / kTreeBlock;
  const std::size_t groups = blocks >= 8 ? blocks / 8 : blocks;
  for (std::size_t g = 0; g < groups; ++g) {
    if (blocks < 8) {
      __m512d o[K];
      octets(g * kTreeBlock, o);
      for (std::size_t k = 0; k < K; ++k) {
        tree_counter_push(pending[k], g, tree_finish8(o[k]));
      }
      continue;
    }
    const std::size_t base = g * 8 * kTreeBlock;
    __m512d q[4][K];
    for (std::size_t c = 0; c < 4; ++c) {
      __m512d lo[K];
      __m512d hi[K];
      octets(base + 2 * c * kTreeBlock, lo);
      octets(base + (2 * c + 1) * kTreeBlock, hi);
      for (std::size_t k = 0; k < K; ++k) q[c][k] = tree_pair8(lo[k], hi[k]);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m512d s =
          tree_pair8(tree_pair8(q[0][k], q[1][k]), tree_pair8(q[2][k], q[3][k]));
      tree_counter_push(pending[k], g, tree_finish8(s));
    }
  }
  double out[3] = {};
  for (std::size_t k = 0; k < K; ++k) out[k] = tree_counter_root(pending[k], groups);
  return {out[0], out[1], out[2]};
}

/// tree_blocks_avx512 over per-element leaves: leaf(i) returns the leaves
/// of elements i..i+7 and runs once per 8 elements, in ascending order.
template <std::size_t K, typename Leaf>
TreeSums tree_leaves_avx512(std::size_t n, const Leaf& leaf) {
  return tree_blocks_avx512<K>(n, [&leaf](std::size_t i) {
    const Leaves8 l0 = leaf(i);
    const Leaves8 l1 = leaf(i + 8);
    Leaves8 p{tree_pair8(l0.a, l1.a), l0.b, l0.c};
    if constexpr (K > 1) p.b = tree_pair8(l0.b, l1.b);
    if constexpr (K > 2) p.c = tree_pair8(l0.c, l1.c);
    return p;
  });
}

/// Pass 1 splits x and y into even and odd elements first: each leaf is
/// the same per-element product, and the first level becomes a lane-wise
/// add of the even and odd leaves for all three sums — four permutes per
/// 16 elements instead of six.
template <bool Shift>
TreeSums check_sums_avx512(const double* x, const double* y, std::size_t n,
                           double mu) {
  const __m512d shift = _mm512_set1_pd(mu);
  return tree_blocks_avx512<3>(n, [=](std::size_t i) {
    const __m512d x0 = _mm512_loadu_pd(x + i);
    const __m512d x1 = _mm512_loadu_pd(x + i + 8);
    const __m512d y0 = _mm512_loadu_pd(y + i);
    const __m512d y1 = _mm512_loadu_pd(y + i + 8);
    const __m512d xe = _mm512_permutex2var_pd(x0, even_lanes(), x1);
    const __m512d xo = _mm512_permutex2var_pd(x0, odd_lanes(), x1);
    const __m512d ye = _mm512_permutex2var_pd(y0, even_lanes(), y1);
    const __m512d yo = _mm512_permutex2var_pd(y0, odd_lanes(), y1);
    const __m512d ze = Shift ? _mm512_sub_pd(ye, _mm512_mul_pd(shift, xe)) : ye;
    const __m512d zo = Shift ? _mm512_sub_pd(yo, _mm512_mul_pd(shift, xo)) : yo;
    return Leaves8{_mm512_add_pd(_mm512_mul_pd(xe, xe), _mm512_mul_pd(xo, xo)),
                   _mm512_add_pd(_mm512_mul_pd(xe, ye), _mm512_mul_pd(xo, yo)),
                   _mm512_add_pd(_mm512_abs_pd(ze), _mm512_abs_pd(zo))};
  });
}

TreeSums sv_tree_check_sums_avx512(const double* x, const double* y,
                                   std::size_t n, double mu) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_check_sums(x, y, n, mu);
  return mu != 0.0 ? check_sums_avx512<true>(x, y, n, mu)
                   : check_sums_avx512<false>(x, y, n, mu);
}

template <bool Shift>
double residual_update_avx512(const double* x, double* y, std::size_t n,
                              double lambda, double mu, double inv) {
  const __m512d lam = _mm512_set1_pd(lambda);
  const __m512d shift = _mm512_set1_pd(mu);
  const __m512d scale = _mm512_set1_pd(inv);
  return tree_leaves_avx512<1>(n, [=](std::size_t i) {
           const __m512d xv = _mm512_loadu_pd(x + i);
           const __m512d yv = _mm512_loadu_pd(y + i);
           const __m512d r = _mm512_sub_pd(yv, _mm512_mul_pd(lam, xv));
           const __m512d z =
               Shift ? _mm512_sub_pd(yv, _mm512_mul_pd(shift, xv)) : yv;
           _mm512_storeu_pd(y + i, _mm512_mul_pd(z, scale));
           const __m512d r2 = _mm512_mul_pd(r, r);
           return Leaves8{r2, r2, r2};
         }).first;
}

double sv_tree_residual_update_avx512(const double* x, double* y, std::size_t n,
                                      double lambda, double mu, double inv) {
  if (!tree_blockwise(n)) {
    return scalar_sv_kernels().tree_residual_update(x, y, n, lambda, mu, inv);
  }
  return mu != 0.0 ? residual_update_avx512<true>(x, y, n, lambda, mu, inv)
                   : residual_update_avx512<false>(x, y, n, lambda, mu, inv);
}

TreeSums sv_tree_sign_sums_avx512(const double* v, std::size_t n) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_sign_sums(v, n);
  // maxpd/minpd return the second operand for a NaN or equal zeros: +0,
  // as positive_part/negative_part do.  (All-lanes maskz forms, as in
  // transpose8x8.)
  constexpr __mmask8 kAll = 0xFF;
  const __m512d zero = _mm512_setzero_pd();
  return tree_leaves_avx512<2>(n, [v, zero](std::size_t i) {
    const __m512d a = _mm512_loadu_pd(v + i);
    return Leaves8{_mm512_maskz_max_pd(kAll, a, zero), _mm512_maskz_min_pd(kAll, a, zero),
                   zero};
  });
}

double sv_tree_abs_sum_avx512(const double* v, std::size_t n) {
  if (!tree_blockwise(n)) return scalar_sv_kernels().tree_abs_sum(v, n);
  return tree_leaves_avx512<1>(n, [v](std::size_t i) {
           const __m512d a = _mm512_abs_pd(_mm512_loadu_pd(v + i));
           return Leaves8{a, a, a};
         }).first;
}

constexpr SvKernels kAvx512SvKernels{
    sv_butterfly_span_avx512, sv_butterfly_quad_span_avx512,
    sv_butterfly_oct_span_avx512, sv_rows8_stage_avx512, sv_mul_span_avx512,
    sv_mul_rows_broadcast_avx512, sv_mul_rows_columns_avx512,
    sv_tree_check_sums_avx512, sv_tree_residual_update_avx512, panel8_check_sums,
    panel8_residual_update, panel8_sign_sums, sv_tree_sign_sums_avx512,
    sv_tree_abs_sum_avx512, "avx512",
};

}  // namespace

const SvKernels* sv_avx512_table() {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx512f")) return &kAvx512SvKernels;
  return nullptr;
#else
  return nullptr;
#endif
}

}  // namespace qs::transforms

#endif  // QS_HAVE_SV_AVX512_KERNELS
