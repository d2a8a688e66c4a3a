// lane4.hpp — the two 4-lane fp64 types the tier-invariant kernels are
// written over.
//
// The fp64 kernels whose outputs flow into gated digests (the batched
// channel engine's geometry, fill and MAC passes, the Eq.-1 similarity
// passes, the Box-Muller noise block) are each written once, over a type
// `D4` holding four doubles, and compiled twice by util/lane4_tiers.inc:
//
//   * lane4::Scalar — four plain doubles. Fused ops are std::fma (correctly
//     rounded on every conforming host), plain ops stay plain, and the
//     transcendentals call lanemath:: per lane;
//   * lane4::Avx2   — one __m256d. Every op is an always-inline AVX2+FMA
//     intrinsic and the transcendentals call simdmath::.
//
// An op means the same rounding on both types — a fused op rounds once, a
// plain op once per operation, reductions keep lane order — and
// lanemath::f is bitwise one lane of simdmath::vf (tests/util/
// lane_exact_test.cpp), so one body yields the same bits on both tiers.
#pragma once

#include <cmath>

#include "util/lane_math.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

#include "util/simd_math.hpp"
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
template <typename F>
Scalar lanewise(F f) {
  Scalar r;
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

inline void sincos(Scalar x, Scalar& s, Scalar& c) {
  for (int l = 0; l < 4; ++l) lanemath::sincos(x.v[l], s.v[l], c.v[l]);
}
inline Scalar log_pos(Scalar x) {
  return detail::lanewise([&](int l) { return lanemath::log_pos(x.v[l]); });
}
inline Scalar exp2(Scalar x) {
  return detail::lanewise([&](int l) { return lanemath::exp2(x.v[l]); });
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

MOBIWLAN_LANE4_AVX2 void sincos(Avx2 x, Avx2& s, Avx2& c) {
  simdmath::vsincos(x.v, s.v, c.v);
}
MOBIWLAN_LANE4_AVX2 Avx2 log_pos(Avx2 x) { return {simdmath::vlog_pos(x.v)}; }
MOBIWLAN_LANE4_AVX2 Avx2 exp2(Avx2 x) { return {simdmath::vexp2(x.v)}; }

#undef MOBIWLAN_LANE4_AVX2
#pragma GCC pop_options

#endif  // __x86_64__

}  // namespace mobiwlan::lane4
