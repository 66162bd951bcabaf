// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (and only
// linked into the dispatcher when the toolchain supports it); executed
// only after the runtime CPUID check in dispatch.cc.
//
// Bit-equality with the scalar table is a hard contract (DESIGN.md
// §5g): every vector sequence here transcribes the per-lane algorithm
// in lane_ops.h op for op — same Horner order, same Cody-Waite
// reduction, same (s0+s2)+(s1+s3) stripe combine, no FMA — and vector
// tails fall back to those exact lane functions. kernels_test.cc
// compares the two tables bitwise on every kernel.
#include "core/kernels/tables.h"

#if defined(DAISY_HAVE_AVX2_BUILD)

#include <immintrin.h>

#include <cstdint>

#include "core/kernels/lane_ops.h"

namespace daisy::kern {
namespace {

// --- vector transcription of lane_ops.h ------------------------------

// 2^k per lane for integer-valued k (normal biased-exponent range), the
// vector form of lane::Pow2Int. k fits int32 (|k| <= ~1075), so the
// pd->epi32->epi64 round trip is exact.
inline __m256d Pow2IntV(__m256d k) {
  const __m128i k32 = _mm256_cvtpd_epi32(k);  // integral input: exact
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_castsi256_pd(bits);
}

// lane::Exp on four lanes. Out-of-range and NaN lanes are computed on
// clamped input and then overwritten by blends, mirroring the scalar
// early returns.
inline __m256d ExpV(__m256d x) {
  const __m256d max_x = _mm256_set1_pd(lane::kExpMax);
  const __m256d min_x = _mm256_set1_pd(lane::kExpMin);
  const __m256d xc = _mm256_min_pd(_mm256_max_pd(x, min_x), max_x);

  const __m256d n = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(_mm256_set1_pd(lane::kLog2E), xc), _mm256_set1_pd(0.5)));
  __m256d r =
      _mm256_sub_pd(xc, _mm256_mul_pd(n, _mm256_set1_pd(lane::kExpC1)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(lane::kExpC2)));
  const __m256d rr = _mm256_mul_pd(r, r);

  __m256d p = _mm256_add_pd(
      _mm256_mul_pd(_mm256_set1_pd(lane::kExpP0), rr),
      _mm256_set1_pd(lane::kExpP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, rr), _mm256_set1_pd(lane::kExpP2));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_add_pd(
      _mm256_mul_pd(_mm256_set1_pd(lane::kExpQ0), rr),
      _mm256_set1_pd(lane::kExpQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(lane::kExpQ2));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(lane::kExpQ3));

  const __m256d one = _mm256_set1_pd(1.0);
  __m256d e = _mm256_add_pd(
      one, _mm256_mul_pd(_mm256_set1_pd(2.0),
                         _mm256_div_pd(p, _mm256_sub_pd(q, p))));

  const __m256d n1 = _mm256_floor_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), n));
  e = _mm256_mul_pd(_mm256_mul_pd(e, Pow2IntV(n1)),
                    Pow2IntV(_mm256_sub_pd(n, n1)));

  // Special cases last, in the same precedence as the scalar ifs:
  // overflow -> +inf, underflow -> 0, NaN -> propagate x.
  const __m256d inf = _mm256_set1_pd(__builtin_inf());
  e = _mm256_blendv_pd(e, inf, _mm256_cmp_pd(x, max_x, _CMP_GT_OQ));
  e = _mm256_blendv_pd(e, _mm256_setzero_pd(),
                       _mm256_cmp_pd(x, min_x, _CMP_LT_OQ));
  e = _mm256_blendv_pd(e, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  return e;
}

inline __m256d AbsV(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

// lane::Tanh on four lanes: poly branch and exp branch both computed,
// then blended on z < kTanhPolyCut exactly like the scalar if.
inline __m256d TanhV(__m256d x) {
  const __m256d z = _mm256_mul_pd(x, x);

  __m256d p = _mm256_add_pd(
      _mm256_mul_pd(_mm256_set1_pd(lane::kTanhP0), z),
      _mm256_set1_pd(lane::kTanhP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(lane::kTanhP2));
  __m256d q = _mm256_add_pd(z, _mm256_set1_pd(lane::kTanhQ0));
  q = _mm256_add_pd(_mm256_mul_pd(q, z), _mm256_set1_pd(lane::kTanhQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, z), _mm256_set1_pd(lane::kTanhQ2));
  const __m256d poly = _mm256_add_pd(
      x, _mm256_mul_pd(x, _mm256_mul_pd(z, _mm256_div_pd(p, q))));

  const __m256d e = ExpV(_mm256_mul_pd(_mm256_set1_pd(2.0), AbsV(x)));
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d t = _mm256_sub_pd(
      one, _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_add_pd(e, one)));
  // copysign(t, x): t is non-negative here.
  const __m256d signbit = _mm256_and_pd(x, _mm256_set1_pd(-0.0));
  t = _mm256_or_pd(t, signbit);

  __m256d y = _mm256_blendv_pd(
      t, poly, _mm256_cmp_pd(z, _mm256_set1_pd(lane::kTanhPolyCut),
                             _CMP_LT_OQ));
  return _mm256_blendv_pd(y, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

// lane::Sigmoid on four lanes.
inline __m256d SigmoidV(__m256d x) {
  const __m256d e = ExpV(_mm256_sub_pd(_mm256_setzero_pd(), AbsV(x)));
  const __m256d d = _mm256_add_pd(_mm256_set1_pd(1.0), e);
  const __m256d pos = _mm256_div_pd(_mm256_set1_pd(1.0), d);
  const __m256d neg = _mm256_div_pd(e, d);
  __m256d y = _mm256_blendv_pd(
      neg, pos, _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ));
  return _mm256_blendv_pd(y, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

// Horizontal stripe combine matching lane::CombineStripes:
// (s0+s2)+(s1+s3).
inline double CombineV(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);           // {s0, s1}
  const __m128d hi = _mm256_extractf128_pd(acc, 1);         // {s2, s3}
  const __m128d s = _mm_add_pd(lo, hi);                     // {s0+s2, s1+s3}
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

// --- kernels ----------------------------------------------------------

// Lanes [0, w) of a column block (w in 1..4). Masked loads read zeros
// and masked stores write nothing outside it, so a ragged block runs
// the same per-lane sequence as a full one.
inline __m256i LaneMask(size_t w) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(w)),
                            _mm256_set_epi64x(3, 2, 1, 0));
}

template <bool kMasked>
inline __m256d Load4(const double* p, __m256i mask) {
  if constexpr (kMasked) return _mm256_maskload_pd(p, mask);
  return _mm256_loadu_pd(p);
}

template <bool kMasked>
inline void Store4(double* p, __m256d v, __m256i mask) {
  if constexpr (kMasked) {
    _mm256_maskstore_pd(p, mask, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

// NN/TN tile, one row group of R (1..4) rows x W (4 or 8) columns:
// R*W/4 accumulators stay in registers over the whole p panel. Each
// lane starts from its o value and adds a*b for ascending p, exactly
// the scalar kernel's sequence.
template <int R, int W, bool kMasked>
inline void GemmNnBlock(const double* a, size_t a_rs, size_t a_ps,
                        const double* b, size_t b_stride, size_t pn,
                        double* o, size_t o_stride, __m256i mask) {
  constexpr int V = W / 4;
  __m256d c[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      c[r][v] = Load4<kMasked>(o + r * o_stride + 4 * v, mask);
  for (size_t p = 0; p < pn; ++p, a += a_ps, b += b_stride) {
    __m256d bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = Load4<kMasked>(b + 4 * v, mask);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * a_rs);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        c[r][v] = _mm256_add_pd(c[r][v], _mm256_mul_pd(av, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      Store4<kMasked>(o + r * o_stride + 4 * v, c[r][v], mask);
}

template <int R>
void GemmNnRows(const double* a, size_t a_rs, size_t a_ps, const double* b,
                size_t b_stride, size_t pn, double* o, size_t o_stride,
                size_t jn) {
  const __m256i all = _mm256_set1_epi64x(-1);
  size_t j = 0;
  for (; j + 8 <= jn; j += 8)
    GemmNnBlock<R, 8, false>(a, a_rs, a_ps, b + j, b_stride, pn, o + j,
                             o_stride, all);
  for (; j + 4 <= jn; j += 4)
    GemmNnBlock<R, 4, false>(a, a_rs, a_ps, b + j, b_stride, pn, o + j,
                             o_stride, all);
  if (j < jn)
    GemmNnBlock<R, 4, true>(a, a_rs, a_ps, b + j, b_stride, pn, o + j,
                            o_stride, LaneMask(jn - j));
}

void GemmNnAvx2(const double* a, size_t a_rs, size_t a_ps, const double* b,
                size_t b_stride, size_t pn, double* o, size_t o_stride,
                size_t rows, size_t jn) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4)
    GemmNnRows<4>(a + r * a_rs, a_rs, a_ps, b, b_stride, pn,
                  o + r * o_stride, o_stride, jn);
  // The last 1-3 rows are one short tile, not a second path.
  const double* ar = a + r * a_rs;
  double* orow = o + r * o_stride;
  if (rows - r == 3)
    GemmNnRows<3>(ar, a_rs, a_ps, b, b_stride, pn, orow, o_stride, jn);
  else if (rows - r == 2)
    GemmNnRows<2>(ar, a_rs, a_ps, b, b_stride, pn, orow, o_stride, jn);
  else if (rows - r == 1)
    GemmNnRows<1>(ar, a_rs, a_ps, b, b_stride, pn, orow, o_stride, jn);
}

// NT tile, R (1..2) rows x one 4-column panel: each row keeps one
// accumulator per stripe, lane l of stripe q summing a*b over p = q,
// q+4, ... ascending from 0.0 — lane::DotStriped's order, main loop and
// tail alike — then (s0+s2)+(s1+s3).
template <int R>
inline void GemmNtPanel(const double* a, size_t a_stride, const double* panel,
                        size_t kn, __m256d (&out)[R]) {
  __m256d s[R][4];
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) s[r][q] = _mm256_setzero_pd();
  // Adds the products of inner index p into stripe q.
  const auto step = [&](int q, size_t p) {
    const __m256d bv = _mm256_loadu_pd(panel + 4 * p);
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r)
      s[r][q] = _mm256_add_pd(
          s[r][q],
          _mm256_mul_pd(_mm256_broadcast_sd(a + r * a_stride + p), bv));
  };
  size_t p = 0;
  for (; p + 4 <= kn; p += 4) {
    step(0, p);
    step(1, p + 1);
    step(2, p + 2);
    step(3, p + 3);
  }
  if (p < kn) step(0, p);
  if (p + 1 < kn) step(1, p + 1);
  if (p + 2 < kn) step(2, p + 2);
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r)
    out[r] = _mm256_add_pd(_mm256_add_pd(s[r][0], s[r][2]),
                           _mm256_add_pd(s[r][1], s[r][3]));
}

void GemmNtAvx2(const double* a, size_t a_stride, const double* bp,
                size_t kn, double* o, size_t o_stride, size_t rows,
                size_t jn) {
  // Panel-outer: one panel (4*kn doubles) stays in L1 while the rows
  // stream past it.
  for (size_t j = 0; j < jn; j += 4, bp += 4 * kn) {
    const size_t w = jn - j < 4 ? jn - j : 4;
    const __m256i mask = LaneMask(w);
    const auto put = [&](size_t r, __m256d v) {
      if (w == 4) {
        _mm256_storeu_pd(o + r * o_stride + j, v);
      } else {
        _mm256_maskstore_pd(o + r * o_stride + j, mask, v);
      }
    };
    size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      __m256d v[2];
      GemmNtPanel<2>(a + r * a_stride, a_stride, bp, kn, v);
      put(r, v[0]);
      put(r + 1, v[1]);
    }
    if (r < rows) {
      __m256d v[1];
      GemmNtPanel<1>(a + r * a_stride, a_stride, bp, kn, v);
      put(r, v[0]);
    }
  }
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  if (i < n) {
    alignas(32) double s[4];
    _mm256_store_pd(s, acc);
    for (; i < n; ++i) s[i & 3] += a[i] * b[i];
    return lane::CombineStripes(s);
  }
  return CombineV(acc);
}

void ScaleAvx2(double s, double* d, size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), sv));
  for (; i < n; ++i) d[i] *= s;
}

void AddAvx2(const double* s, double* d, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(d + i, _mm256_add_pd(_mm256_loadu_pd(d + i),
                                          _mm256_loadu_pd(s + i)));
  for (; i < n; ++i) d[i] += s[i];
}

void SubAvx2(const double* s, double* d, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(d + i, _mm256_sub_pd(_mm256_loadu_pd(d + i),
                                          _mm256_loadu_pd(s + i)));
  for (; i < n; ++i) d[i] -= s[i];
}

void MulAvx2(const double* s, double* d, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i),
                                          _mm256_loadu_pd(s + i)));
  for (; i < n; ++i) d[i] *= s[i];
}

void TanhAvx2(const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, TanhV(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = lane::Tanh(x[i]);
}

void SigmoidAvx2(const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, SigmoidV(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = lane::Sigmoid(x[i]);
}

void ReluAvx2(const double* x, double* y, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i,
                     _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void LeakyReluAvx2(double alpha, const double* x, double* y, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d av = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(
        y + i, _mm256_blendv_pd(_mm256_mul_pd(av, v), v,
                                _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : alpha * x[i];
}

void TanhBwdAvx2(const double* y, double* g, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(yv, yv));
    _mm256_storeu_pd(g + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), d));
  }
  for (; i < n; ++i) g[i] = g[i] * (1.0 - y[i] * y[i]);
}

void SigmoidBwdAvx2(const double* y, double* g, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d d = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    _mm256_storeu_pd(g + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), d));
  }
  for (; i < n; ++i) g[i] = g[i] * (y[i] * (1.0 - y[i]));
}

void ReluBwdAvx2(const double* x, double* g, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_pd(g + i, _mm256_and_pd(_mm256_loadu_pd(g + i), mask));
  }
  for (; i < n; ++i) {
    if (!(x[i] > 0.0)) g[i] = 0.0;
  }
}

void LeakyReluBwdAvx2(double alpha, const double* x, double* g, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d av = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_pd(g + i,
                     _mm256_blendv_pd(_mm256_mul_pd(av, gv), gv, mask));
  }
  for (; i < n; ++i) {
    if (!(x[i] > 0.0)) g[i] = alpha * g[i];
  }
}

void SoftmaxRowAvx2(const double* x, double* y, size_t n) {
  // Stripe max in vmaxpd comparator form, combined like lane::Max2
  // over lanes 0..3 (max is order-insensitive for the finite inputs
  // softmax sees, so any fixed combine matches the scalar scan).
  double mx;
  size_t i = 0;
  if (n >= 4) {
    __m256d m = _mm256_loadu_pd(x);
    for (i = 4; i + 4 <= n; i += 4)
      m = _mm256_max_pd(m, _mm256_loadu_pd(x + i));
    alignas(32) double ml[4];
    _mm256_store_pd(ml, m);
    for (; i < n; ++i) ml[i & 3] = lane::Max2(ml[i & 3], x[i]);
    mx = lane::Max2(lane::Max2(ml[0], ml[1]), lane::Max2(ml[2], ml[3]));
  } else {
    mx = x[0];
    for (i = 1; i < n; ++i) mx = lane::Max2(mx, x[i]);
  }

  const __m256d mv = _mm256_set1_pd(mx);
  __m256d acc = _mm256_setzero_pd();
  for (i = 0; i + 4 <= n; i += 4) {
    const __m256d e = ExpV(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv));
    _mm256_storeu_pd(y + i, e);
    acc = _mm256_add_pd(acc, e);
  }
  double sum;
  if (i < n) {
    alignas(32) double s[4];
    _mm256_store_pd(s, acc);
    for (; i < n; ++i) {
      y[i] = lane::Exp(x[i] - mx);
      s[i & 3] += y[i];
    }
    sum = lane::CombineStripes(s);
  } else {
    sum = CombineV(acc);
  }

  const double inv = 1.0 / sum;
  const __m256d iv = _mm256_set1_pd(inv);
  for (i = 0; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), iv));
  for (; i < n; ++i) y[i] = y[i] * inv;
}

void SoftmaxRowBwdAvx2(const double* y, const double* g, double* out,
                       size_t n) {
  const double dot = DotAvx2(g, y, n);
  const __m256d dv = _mm256_set1_pd(dot);
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(y + i),
                               _mm256_sub_pd(_mm256_loadu_pd(g + i), dv)));
  for (; i < n; ++i) out[i] = y[i] * (g[i] - dot);
}

size_t ArgMaxAvx2(const double* x, size_t n) {
  // Striped first-max: stripe l tracks the first maximum among indices
  // ≡ l (mod 4); the combine takes the lowest index among stripes that
  // reach the overall max. For NaN-free input this provably returns
  // the same index as the scalar first-wins scan (see kernels.h).
  if (n < 8) {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i)
      if (x[i] > x[best]) best = i;
    return best;
  }
  __m256d bv = _mm256_loadu_pd(x);
  __m256d bi = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  __m256d ci = bi;
  const __m256d four = _mm256_set1_pd(4.0);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    ci = _mm256_add_pd(ci, four);
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d gt = _mm256_cmp_pd(v, bv, _CMP_GT_OQ);
    bv = _mm256_blendv_pd(bv, v, gt);
    bi = _mm256_blendv_pd(bi, ci, gt);
  }
  alignas(32) double vals[4], idxs[4];
  _mm256_store_pd(vals, bv);
  _mm256_store_pd(idxs, bi);
  for (; i < n; ++i) {
    const size_t l = i & 3;
    if (x[i] > vals[l]) {
      vals[l] = x[i];
      idxs[l] = static_cast<double>(i);
    }
  }
  double best_v = vals[0];
  double best_i = idxs[0];
  for (int l = 1; l < 4; ++l) {
    if (vals[l] > best_v || (vals[l] == best_v && idxs[l] < best_i)) {
      best_v = vals[l];
      best_i = idxs[l];
    }
  }
  return static_cast<size_t>(best_i);
}

}  // namespace

const KernelTable kAvx2Table = {
    .gemm_nn = GemmNnAvx2,
    .gemm_nt = GemmNtAvx2,
    .dot = DotAvx2,
    .scale = ScaleAvx2,
    .add = AddAvx2,
    .sub = SubAvx2,
    .mul = MulAvx2,
    .tanh = TanhAvx2,
    .sigmoid = SigmoidAvx2,
    .relu = ReluAvx2,
    .leaky_relu = LeakyReluAvx2,
    .tanh_bwd = TanhBwdAvx2,
    .sigmoid_bwd = SigmoidBwdAvx2,
    .relu_bwd = ReluBwdAvx2,
    .leaky_relu_bwd = LeakyReluBwdAvx2,
    .softmax_row = SoftmaxRowAvx2,
    .softmax_row_bwd = SoftmaxRowBwdAvx2,
    .argmax = ArgMaxAvx2,
};

}  // namespace daisy::kern

#endif  // DAISY_HAVE_AVX2_BUILD
