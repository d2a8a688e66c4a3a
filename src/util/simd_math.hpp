// simd_math.hpp — shared 4-lane AVX2+FMA ports of the fastmath.hpp kernels.
//
// The Box-Muller noise fill (util/rng.cpp) and the batched channel engine
// (chan/channel_batch.cpp) both burn most of their cycles in elementwise
// transcendentals. These are the vector ports of the scalar fdlibm kernels:
// same constants and evaluation order, so each lane agrees with the scalar
// path to ~1 ulp — vastly inside the 1e-12 numerical-equivalence budget the
// channel code is held to.
//
// Everything here is fp64 and carries the avx2,fma target attribute;
// callers must gate on simd::use_avx2fma() (a baseline-ISA caller cannot
// inline these, so a guarded call is safe on any x86-64 host). The fp32
// vector sincos, at 8 and 16 lanes, is util/lanef.hpp's.
#pragma once

#if defined(__x86_64__)

#include <immintrin.h>

#include <cassert>
#include <cfloat>
#include <numbers>

#include "util/fastmath.hpp"

namespace mobiwlan::simdmath {

// Debug-build range checks: each kernel documents an input domain
// (|x| <= kSincosWideMaxArg, |x| <= 256, positive normal, ...) but nothing
// used to enforce it at call sites — an out-of-range argument silently
// returns garbage in release. Debug builds now trap the first bad lane.
namespace detail {

#if !defined(NDEBUG)
#define MOBIWLAN_SIMD_MATH_CHECKS 1

__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline void assert_range_pd(
    __m256d v, double lo, double hi) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  for (double lane : lanes) assert(lane >= lo && lane <= hi);
}

#define MOBIWLAN_ASSERT_LANES_PD(v, lo, hi) \
  ::mobiwlan::simdmath::detail::assert_range_pd((v), (lo), (hi))
#else
#define MOBIWLAN_ASSERT_LANES_PD(v, lo, hi) ((void)0)
#endif

}  // namespace detail

/// log(x) for 4 finite normal positive lanes (port of fastmath::log_pos).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline __m256d vlog_pos(__m256d x) {
  namespace fm = fastmath::detail;
  MOBIWLAN_ASSERT_LANES_PD(x, DBL_MIN, DBL_MAX);  // positive, normal, finite
  const __m256i bits = _mm256_castpd_si256(x);
  __m256i k64 = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                 _mm256_set1_epi64x(1023));
  const __m256i hi20 = _mm256_and_si256(_mm256_srli_epi64(bits, 32),
                                        _mm256_set1_epi64x(0xfffff));
  const __m256i i20 =
      _mm256_and_si256(_mm256_add_epi64(hi20, _mm256_set1_epi64x(0x95f64)),
                       _mm256_set1_epi64x(0x100000));
  k64 = _mm256_add_epi64(k64, _mm256_srli_epi64(i20, 20));
  const __m256i mant =
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL));
  const __m256i expfield = _mm256_slli_epi64(
      _mm256_xor_si256(i20, _mm256_set1_epi64x(0x3ff00000)), 32);
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(mant, expfield));
  // k fits in int32 (|k| <= 1075): compress the 64-bit lanes and convert.
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256d dk = _mm256_cvtepi32_pd(
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(k64, perm)));
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_fmadd_pd(
             w,
             _mm256_fmadd_pd(w, _mm256_set1_pd(fm::kLg6),
                             _mm256_set1_pd(fm::kLg4)),
             _mm256_set1_pd(fm::kLg2)));
  const __m256d t2 = _mm256_mul_pd(
      z, _mm256_fmadd_pd(
             w,
             _mm256_fmadd_pd(
                 w,
                 _mm256_fmadd_pd(w, _mm256_set1_pd(fm::kLg7),
                                 _mm256_set1_pd(fm::kLg5)),
                 _mm256_set1_pd(fm::kLg3)),
             _mm256_set1_pd(fm::kLg1)));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(f, f));
  // dk*ln2_hi - ((hfsq - (s*(hfsq+r) + dk*ln2_lo)) - f)
  const __m256d inner = _mm256_fmadd_pd(dk, _mm256_set1_pd(fm::kLn2Lo),
                                        _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)));
  return _mm256_fmadd_pd(
      dk, _mm256_set1_pd(fm::kLn2Hi),
      _mm256_sub_pd(f, _mm256_sub_pd(hfsq, inner)));
}

/// sin and cos of 4 lanes. Valid over the extended sincos_wide range
/// (|x| <= fastmath::kSincosWideMaxArg): k*pio2_hi stays exact, and the
/// int32 quadrant conversion holds to |k| < 2^31.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline void vsincos(__m256d x,
                                                        __m256d& s_out,
                                                        __m256d& c_out) {
  namespace fm = fastmath::detail;
  MOBIWLAN_ASSERT_LANES_PD(x, -fastmath::kSincosWideMaxArg,
                           fastmath::kSincosWideMaxArg);
  const __m256d kd = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(fm::kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(fm::kPio2Hi), x);
  r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(fm::kPio2Lo), r);
  const __m256d z = _mm256_mul_pd(r, r);
  __m256d ps = _mm256_fmadd_pd(z, _mm256_set1_pd(fm::kS6), _mm256_set1_pd(fm::kS5));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(fm::kS4));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(fm::kS3));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(fm::kS2));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(fm::kS1));
  const __m256d psin = _mm256_fmadd_pd(_mm256_mul_pd(z, r), ps, r);
  __m256d pc = _mm256_fmadd_pd(z, _mm256_set1_pd(fm::kC6), _mm256_set1_pd(fm::kC5));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(fm::kC4));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(fm::kC3));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(fm::kC2));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(fm::kC1));
  const __m256d hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
  const __m256d w = _mm256_sub_pd(_mm256_set1_pd(1.0), hz);
  const __m256d pcos = _mm256_add_pd(
      w, _mm256_add_pd(
             _mm256_sub_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), w), hz),
             _mm256_mul_pd(z, _mm256_mul_pd(z, pc))));
  // Quadrant: sin = {s, c, -s, -c}[n & 3], cos = {c, -s, -c, s}[n & 3].
  const __m256i n = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kd));
  const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(n, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256d s_base = _mm256_blendv_pd(psin, pcos, odd);
  const __m256d c_base = _mm256_blendv_pd(pcos, psin, odd);
  const __m256d s_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(n, _mm256_set1_epi64x(2)), 62));
  const __m256d c_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(n, _mm256_set1_epi64x(1)),
                       _mm256_set1_epi64x(2)),
      62));
  s_out = _mm256_xor_pd(s_base, s_sign);
  c_out = _mm256_xor_pd(c_base, c_sign);
}

/// 2^x for 4 lanes with |x| <= 256 (all the dB -> linear conversions the
/// channel needs live in [-40, 0]). Reduction x = k + f with k integral and
/// |f| <= 1/2 is exact; 2^f = exp(f ln2) by a degree-12 Taylor Horner chain
/// (truncation < 2e-16 at |f ln2| <= 0.347); the 2^k scale is an exact
/// exponent-field multiply. Agrees with std::exp2 to ~2 ulp.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline __m256d vexp2(__m256d x) {
  MOBIWLAN_ASSERT_LANES_PD(x, -256.0, 256.0);
  const __m256d kd = _mm256_round_pd(
      x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d t =
      _mm256_mul_pd(_mm256_sub_pd(x, kd), _mm256_set1_pd(std::numbers::ln2));
  __m256d p = _mm256_set1_pd(1.0 / 479001600.0);  // 1/12!
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 39916800.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(t, p, _mm256_set1_pd(1.0));
  // scale by 2^k via the exponent field; k is integral and |k| <= 256.
  const __m256i k64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kd));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52));
  return _mm256_mul_pd(p, scale);
}

}  // namespace mobiwlan::simdmath

#endif  // __x86_64__
