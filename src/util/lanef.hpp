// lanef.hpp — the two fp32 lane types the vector fp32 kernels are written
// over, and the fp32 sincos polynomial.
//
// The fp32 precision tier's vector kernels (the staged sincos pass, the
// phasor fill and the steer x base MAC of chan/channel_batch_f32_kernels.inc)
// and the sincos polynomial below are each written once, over a lane type
// `F` whose vector `F::V` holds F::kW floats, and compiled twice by
// util/lanef_tiers.inc:
//
//   * lanef::F8  — one __m256, 8 lanes, for AVX2+FMA;
//   * lanef::F16 — one __m512, 16 lanes, for AVX-512 F/DQ/VL.
//
// Plain arithmetic is GCC vector-extension arithmetic on F::V (a scalar
// operand is broadcast); contraction is off, so `a * b + c` rounds twice.
// The types hold only what the two widths spell differently: load/store/
// set1, the fused ops, round-to-nearest, the overlapped-tail mask and the
// widening interleaved float -> cplx store. Every op rounds the same way at
// both widths, so the sincos lanes agree bitwise; a kernel whose result
// depends on the width (the fill steps by step^W) gives each tier its own
// bits.
#pragma once

#if defined(__x86_64__)

#include <immintrin.h>

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "util/fastmath.hpp"

namespace mobiwlan::lanef {

#define MOBIWLAN_LANEF_OP [[gnu::always_inline]] static inline

#pragma GCC push_options
#pragma GCC target("avx2,fma")
#pragma GCC optimize("fp-contract=off")

struct F8 {
  static constexpr int kW = 8;
  using V = __m256;

  MOBIWLAN_LANEF_OP V load(const float* p) { return _mm256_loadu_ps(p); }
  MOBIWLAN_LANEF_OP void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  MOBIWLAN_LANEF_OP V set1(float x) { return _mm256_set1_ps(x); }
  /// a*b + c, one rounding.
  MOBIWLAN_LANEF_OP V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  /// c - a*b, one rounding.
  MOBIWLAN_LANEF_OP V fnmadd(V a, V b, V c) {
    return _mm256_fnmadd_ps(a, b, c);
  }
  /// a*b - c, one rounding.
  MOBIWLAN_LANEF_OP V fmsub(V a, V b, V c) { return _mm256_fmsub_ps(a, b, c); }
  /// Round to nearest, ties to even.
  MOBIWLAN_LANEF_OP V round(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// v with its lanes below k zeroed.
  MOBIWLAN_LANEF_OP V keep_from(V v, std::size_t k) {
    const V idx = _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_and_ps(
        v, _mm256_cmp_ps(idx, set1(static_cast<float>(k)), _CMP_GE_OQ));
  }
  /// dst[0..16) = re0 im0 re1 im1 ... re7 im7, widened to double.
  MOBIWLAN_LANEF_OP void store_cplx(double* dst, V re, V im) {
    const V lo = _mm256_unpacklo_ps(re, im);  // re0 im0 re1 im1 | re4 ..
    const V hi = _mm256_unpackhi_ps(re, im);  // re2 im2 re3 im3 | re6 ..
    _mm256_storeu_pd(dst, _mm256_cvtps_pd(_mm256_castps256_ps128(lo)));
    _mm256_storeu_pd(dst + 4, _mm256_cvtps_pd(_mm256_castps256_ps128(hi)));
    _mm256_storeu_pd(dst + 8, _mm256_cvtps_pd(_mm256_extractf128_ps(lo, 1)));
    _mm256_storeu_pd(dst + 12, _mm256_cvtps_pd(_mm256_extractf128_ps(hi, 1)));
  }
};

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,fma,avx512f,avx512dq,avx512vl")
#pragma GCC optimize("fp-contract=off")

struct F16 {
  static constexpr int kW = 16;
  using V = __m512;

  MOBIWLAN_LANEF_OP V load(const float* p) { return _mm512_loadu_ps(p); }
  MOBIWLAN_LANEF_OP void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  MOBIWLAN_LANEF_OP V set1(float x) { return _mm512_set1_ps(x); }
  MOBIWLAN_LANEF_OP V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  MOBIWLAN_LANEF_OP V fnmadd(V a, V b, V c) {
    return _mm512_fnmadd_ps(a, b, c);
  }
  MOBIWLAN_LANEF_OP V fmsub(V a, V b, V c) { return _mm512_fmsub_ps(a, b, c); }
  // The maskz_ forms with a full mask: the plain intrinsics start from
  // _mm512_undefined_*(), which GCC 12 reports as maybe-uninitialized.
  MOBIWLAN_LANEF_OP V round(V x) {
    return _mm512_maskz_roundscale_ps(
        0xffff, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  MOBIWLAN_LANEF_OP V keep_from(V v, std::size_t k) {
    return _mm512_maskz_mov_ps(static_cast<__mmask16>(0xffffu << k), v);
  }
  /// Lanes [8*Half, 8*Half + 8) of v, widened to double.
  template <int Half>
  MOBIWLAN_LANEF_OP __m512d widen(V v) {
    return _mm512_maskz_cvtps_pd(0xff, _mm512_extractf32x8_ps(v, Half));
  }
  /// dst[0..32) = re0 im0 re1 im1 ... re15 im15, widened to double.
  MOBIWLAN_LANEF_OP void store_cplx(double* dst, V re, V im) {
    const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const __m512d re_lo = widen<0>(re), im_lo = widen<0>(im);
    const __m512d re_hi = widen<1>(re), im_hi = widen<1>(im);
    _mm512_storeu_pd(dst, _mm512_permutex2var_pd(re_lo, idx_lo, im_lo));
    _mm512_storeu_pd(dst + 8, _mm512_permutex2var_pd(re_lo, idx_hi, im_lo));
    _mm512_storeu_pd(dst + 16, _mm512_permutex2var_pd(re_hi, idx_lo, im_hi));
    _mm512_storeu_pd(dst + 24, _mm512_permutex2var_pd(re_hi, idx_hi, im_hi));
  }
};

#pragma GCC pop_options

#undef MOBIWLAN_LANEF_OP

// lanef::sincos(F8::V ...) and lanef::sincos(F16::V ...): one polynomial.
#define MOBIWLAN_LANEF_BODY "util/lanef_sincos.inc"
#include "util/lanef_tiers.inc"
using avx2_f32::sincos;
using avx512_f32::sincos;

}  // namespace mobiwlan::lanef

#endif  // __x86_64__
