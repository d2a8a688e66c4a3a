// lane4.hpp — the two 4-lane fp64 types the tier-invariant kernels are
// written over, and the fp64 transcendentals.
//
// The fp64 kernels whose outputs flow into gated digests (the batched
// channel engine's geometry, fill and MAC passes, the Eq.-1 similarity
// passes, the Box-Muller noise block) and the sincos / log_pos / exp2 they
// call (util/lane4_math.inc) are each written once, over a type `D4`
// holding four doubles, and compiled twice by util/lane4_tiers.inc:
//
//   * lane4::Scalar — four plain doubles. Fused ops are std::fma (correctly
//     rounded on every conforming host) and plain ops stay plain;
//   * lane4::Avx2   — one __m256d. Every op is an always-inline AVX2+FMA
//     intrinsic.
//
// An op means the same rounding on both types — a fused op rounds once, a
// plain op once per operation, reductions keep lane order — so one body
// yields the same bits on both tiers. The types hold only what the two
// tiers spell differently: memory and shuffles (load2/store2, transpose4),
// arithmetic and the few steps of the transcendentals that are bit
// manipulation (round-to-nearest-even, the sincos quadrant fix-up, the log
// exponent split and the exact 2^k scale).
#pragma once

#include <bit>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/fastmath.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mobiwlan::lane4 {

struct Scalar {
  double v[4];

  static Scalar load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static Scalar set1(double x) { return {{x, x, x, x}}; }
  /// Lanes 0..3 = l0..l3.
  static Scalar setr(double l0, double l1, double l2, double l3) {
    return {{l0, l1, l2, l3}};
  }
  void store(double* p) const {
    for (int l = 0; l < 4; ++l) p[l] = v[l];
  }
};

namespace detail {
// Unrolled, so an op whose lanes call out (std::fma, std::nearbyint) is
// four straight-line calls rather than a loop around one.
template <typename F>
Scalar lanewise(F f) {
  Scalar r;
#pragma GCC unroll 4
  for (int l = 0; l < 4; ++l) r.v[l] = f(l);
  return r;
}
}  // namespace detail

inline Scalar operator+(Scalar a, Scalar b) {
  return detail::lanewise([&](int l) { return a.v[l] + b.v[l]; });
}
inline Scalar operator-(Scalar a, Scalar b) {
  return detail::lanewise([&](int l) { return a.v[l] - b.v[l]; });
}
inline Scalar operator*(Scalar a, Scalar b) {
  return detail::lanewise([&](int l) { return a.v[l] * b.v[l]; });
}
inline Scalar operator/(Scalar a, Scalar b) {
  return detail::lanewise([&](int l) { return a.v[l] / b.v[l]; });
}
/// a > b ? a : b lane by lane (b on a NaN), as _mm256_max_pd.
inline Scalar max(Scalar a, Scalar b) {
  return detail::lanewise(
      [&](int l) { return a.v[l] > b.v[l] ? a.v[l] : b.v[l]; });
}
/// a*b + c, one rounding.
inline Scalar fmadd(Scalar a, Scalar b, Scalar c) {
  return detail::lanewise(
      [&](int l) { return std::fma(a.v[l], b.v[l], c.v[l]); });
}
/// c - a*b, one rounding.
inline Scalar fnmadd(Scalar a, Scalar b, Scalar c) {
  return detail::lanewise(
      [&](int l) { return std::fma(-a.v[l], b.v[l], c.v[l]); });
}
/// a*b - c, one rounding.
inline Scalar fmsub(Scalar a, Scalar b, Scalar c) {
  return detail::lanewise(
      [&](int l) { return std::fma(a.v[l], b.v[l], -c.v[l]); });
}
inline Scalar sqrt(Scalar a) {
  return detail::lanewise([&](int l) { return std::sqrt(a.v[l]); });
}
/// ((lane0 + lane1) + lane2) + lane3.
inline double hsum(Scalar a) { return a.v[0] + a.v[1] + a.v[2] + a.v[3]; }

/// p[0..8) = re0 im0 re1 im1 re2 im2 re3 im3 (the cplx layout).
inline void load2(const double* p, Scalar& re, Scalar& im) {
  for (int l = 0; l < 4; ++l) {
    re.v[l] = p[2 * l];
    im.v[l] = p[2 * l + 1];
  }
}
inline void store2(double* p, Scalar re, Scalar im) {
  for (int l = 0; l < 4; ++l) {
    p[2 * l] = re.v[l];
    p[2 * l + 1] = im.v[l];
  }
}

/// The 4x4 transpose: lane l of o_j is lane j of r_l, so four planes of
/// four entries become one vector per entry. Moves only.
inline void transpose4(Scalar r0, Scalar r1, Scalar r2, Scalar r3, Scalar& o0,
                       Scalar& o1, Scalar& o2, Scalar& o3) {
  o0 = {{r0.v[0], r1.v[0], r2.v[0], r3.v[0]}};
  o1 = {{r0.v[1], r1.v[1], r2.v[1], r3.v[1]}};
  o2 = {{r0.v[2], r1.v[2], r2.v[2], r3.v[2]}};
  o3 = {{r0.v[3], r1.v[3], r2.v[3], r3.v[3]}};
}

/// Round to nearest, ties to even (nearbyint in the default rounding mode).
inline Scalar round(Scalar a) {
  return detail::lanewise([&](int l) { return std::nearbyint(a.v[l]); });
}
/// sin = {ps, pc, -ps, -pc}[n & 3] and cos = {pc, -ps, -pc, ps}[n & 3] for
/// the integral quadrant kd = n; the sign flips are exact.
inline void quadrant(Scalar kd, Scalar ps, Scalar pc, Scalar& s, Scalar& c) {
  for (int l = 0; l < 4; ++l) {
    const auto n = static_cast<std::int64_t>(kd.v[l]);
    const bool odd = (n & 1) != 0;
    s.v[l] = odd ? pc.v[l] : ps.v[l];
    c.v[l] = odd ? ps.v[l] : pc.v[l];
    if ((n & 2) != 0) s.v[l] = -s.v[l];
    if (((n + 1) & 2) != 0) c.v[l] = -c.v[l];
  }
}
/// fdlibm's log split of a positive normal x = 2^k * m with m in
/// [sqrt(2)/2, sqrt(2)); k is returned as a double. The 64-bit arithmetic
/// wraps like the vector's epi64 lanes.
inline void log_split(Scalar x, Scalar& m, Scalar& k) {
  for (int l = 0; l < 4; ++l) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x.v[l]);
    const std::uint64_t i20 = (((bits >> 32) & 0xfffff) + 0x95f64) & 0x100000;
    const std::uint64_t e = (bits >> 52) - 1023 + (i20 >> 20);
    m.v[l] = std::bit_cast<double>((bits & 0x000fffffffffffffULL) |
                                   ((i20 ^ 0x3ff00000ULL) << 32));
    k.v[l] = static_cast<double>(static_cast<std::int64_t>(e));
  }
}
/// p * 2^kd, exactly, for integral |kd| <= 256.
inline Scalar mul_pow2(Scalar p, Scalar kd) {
  return detail::lanewise([&](int l) {
    const auto k = static_cast<std::int64_t>(kd.v[l]);
    return p.v[l] *
           std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  });
}

#if defined(__x86_64__)

// GCC inlines AVX2 intrinsics only into code compiled for that target, so
// the type and its ops carry it; contraction stays off so that a plain
// mul/add pair is never fused behind the body's back.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#pragma GCC optimize("fp-contract=off")

#define MOBIWLAN_LANE4_AVX2 [[gnu::always_inline]] inline

struct Avx2 {
  __m256d v;

  MOBIWLAN_LANE4_AVX2 static Avx2 load(const double* p) {
    return {_mm256_loadu_pd(p)};
  }
  MOBIWLAN_LANE4_AVX2 static Avx2 set1(double x) {
    return {_mm256_set1_pd(x)};
  }
  MOBIWLAN_LANE4_AVX2 static Avx2 setr(double l0, double l1, double l2,
                                      double l3) {
    return {_mm256_setr_pd(l0, l1, l2, l3)};
  }
  MOBIWLAN_LANE4_AVX2 void store(double* p) const { _mm256_storeu_pd(p, v); }
};

MOBIWLAN_LANE4_AVX2 Avx2 operator+(Avx2 a, Avx2 b) {
  return {_mm256_add_pd(a.v, b.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 operator-(Avx2 a, Avx2 b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 operator*(Avx2 a, Avx2 b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 operator/(Avx2 a, Avx2 b) {
  return {_mm256_div_pd(a.v, b.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 max(Avx2 a, Avx2 b) {
  return {_mm256_max_pd(a.v, b.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 fmadd(Avx2 a, Avx2 b, Avx2 c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 fnmadd(Avx2 a, Avx2 b, Avx2 c) {
  return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 fmsub(Avx2 a, Avx2 b, Avx2 c) {
  return {_mm256_fmsub_pd(a.v, b.v, c.v)};
}
MOBIWLAN_LANE4_AVX2 Avx2 sqrt(Avx2 a) { return {_mm256_sqrt_pd(a.v)}; }
MOBIWLAN_LANE4_AVX2 double hsum(Avx2 a) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, a.v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

MOBIWLAN_LANE4_AVX2 void load2(const double* p, Avx2& re, Avx2& im) {
  const __m256d v0 = _mm256_loadu_pd(p);
  const __m256d v1 = _mm256_loadu_pd(p + 4);
  re.v = _mm256_permute4x64_pd(_mm256_unpacklo_pd(v0, v1), 0xd8);
  im.v = _mm256_permute4x64_pd(_mm256_unpackhi_pd(v0, v1), 0xd8);
}
MOBIWLAN_LANE4_AVX2 void store2(double* p, Avx2 re, Avx2 im) {
  const __m256d lo = _mm256_unpacklo_pd(re.v, im.v);
  const __m256d hi = _mm256_unpackhi_pd(re.v, im.v);
  _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}

MOBIWLAN_LANE4_AVX2 void transpose4(Avx2 r0, Avx2 r1, Avx2 r2, Avx2 r3,
                                    Avx2& o0, Avx2& o1, Avx2& o2, Avx2& o3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0.v, r1.v);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0.v, r1.v);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2.v, r3.v);
  const __m256d t3 = _mm256_unpackhi_pd(r2.v, r3.v);
  o0.v = _mm256_permute2f128_pd(t0, t2, 0x20);
  o1.v = _mm256_permute2f128_pd(t1, t3, 0x20);
  o2.v = _mm256_permute2f128_pd(t0, t2, 0x31);
  o3.v = _mm256_permute2f128_pd(t1, t3, 0x31);
}

MOBIWLAN_LANE4_AVX2 Avx2 round(Avx2 a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
MOBIWLAN_LANE4_AVX2 void quadrant(Avx2 kd, Avx2 ps, Avx2 pc, Avx2& s,
                                  Avx2& c) {
  const __m256i n = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kd.v));
  const __m256i one = _mm256_set1_epi64x(1), two = _mm256_set1_epi64x(2);
  const __m256d odd =
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(n, one), one));
  const __m256d s_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(n, two), 62));
  const __m256d c_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(n, one), two), 62));
  s.v = _mm256_xor_pd(_mm256_blendv_pd(ps.v, pc.v, odd), s_sign);
  c.v = _mm256_xor_pd(_mm256_blendv_pd(pc.v, ps.v, odd), c_sign);
}
MOBIWLAN_LANE4_AVX2 void log_split(Avx2 x, Avx2& m, Avx2& k) {
  const __m256i bits = _mm256_castpd_si256(x.v);
  const __m256i i20 = _mm256_and_si256(
      _mm256_add_epi64(_mm256_and_si256(_mm256_srli_epi64(bits, 32),
                                        _mm256_set1_epi64x(0xfffff)),
                       _mm256_set1_epi64x(0x95f64)),
      _mm256_set1_epi64x(0x100000));
  const __m256i e = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(1023)),
      _mm256_srli_epi64(i20, 20));
  m.v = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_slli_epi64(_mm256_xor_si256(i20, _mm256_set1_epi64x(0x3ff00000)),
                        32)));
  // e fits in int32 (|e| <= 1075): compress the 64-bit lanes and convert.
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  k.v = _mm256_cvtepi32_pd(
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e, perm)));
}
MOBIWLAN_LANE4_AVX2 Avx2 mul_pow2(Avx2 p, Avx2 kd) {
  const __m256i k = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kd.v));
  return {_mm256_mul_pd(p.v, _mm256_castsi256_pd(_mm256_slli_epi64(
                                 _mm256_add_epi64(k, _mm256_set1_epi64x(1023)),
                                 52)))};
}

#undef MOBIWLAN_LANE4_AVX2
#pragma GCC pop_options

#endif  // __x86_64__

// lane4::sincos / log_pos / exp2 on both types: one body per kernel.
#define MOBIWLAN_LANE4_BODY "util/lane4_math.inc"
#include "util/lane4_tiers.inc"
using scalar_tier::exp2;
using scalar_tier::log_pos;
using scalar_tier::sincos;
#if defined(__x86_64__)
using avx2_tier::exp2;
using avx2_tier::log_pos;
using avx2_tier::sincos;
#endif

}  // namespace mobiwlan::lane4
