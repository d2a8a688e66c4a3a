// lane_math.hpp — scalar fp64 kernels that are *bitwise* mirrors of the
// 4-lane AVX2+FMA kernels in simd_math.hpp.
//
// The vector kernels (simdmath::vsincos / vlog_pos / vexp2) evaluate the
// same fdlibm-derived polynomials as fastmath.hpp, but with FMA contraction
// at fixed points — so a lane disagrees with the plain-multiply scalar
// kernels by a last-ulp here and there. That gap is irrelevant for accuracy
// but fatal for the campus determinism contract, which wants one bit
// pattern per observable on *every* host, AVX2 or not.
//
// These functions re-state the vector kernels lane-for-lane: every fused
// multiply-add in the vector code is an explicit std::fma here, every plain
// vector multiply/add stays a plain multiply/add, and the reductions keep
// the exact lane order. std::fma is correctly rounded by IEEE 754 (glibc
// dispatches to the hardware FMA where present and to a correctly-rounded
// soft path otherwise), so
//
//     lanemath::f(x) == lane_i(simdmath::vf(broadcast(x)))   bit-for-bit
//
// on every conforming host. tests/util/lane_exact_test.cpp asserts exactly
// that across the kernels' documented domains.
//
// Caller: lane4::Scalar (util/lane4.hpp), whose sincos/log/exp2 these are.
// The fp64 kernel bodies written over it — the batched channel engine
// (chan/channel_batch_kernels.inc), the Box-Muller noise block
// (util/rng_kernels.inc) and the Eq.-1 similarity passes
// (core/csi_similarity_kernels.inc) — feed the gated digests.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/fastmath.hpp"

namespace mobiwlan::lanemath {

/// sin and cos of x — bitwise mirror of one lane of simdmath::vsincos.
/// Domain: |x| <= fastmath::kSincosWideMaxArg.
inline void sincos(double x, double& s_out, double& c_out) {
  namespace fm = fastmath::detail;
  // _mm256_round_pd(TO_NEAREST): round-half-to-even, like nearbyint under
  // the default rounding mode.
  const double kd = std::nearbyint(x * fm::kTwoOverPi);
  // fnmadd(kd, hi, x) = x - kd*hi with a single rounding.
  double r = std::fma(-kd, fm::kPio2Hi, x);
  r = std::fma(-kd, fm::kPio2Lo, r);
  const double z = r * r;
  double ps = std::fma(z, fm::kS6, fm::kS5);
  ps = std::fma(z, ps, fm::kS4);
  ps = std::fma(z, ps, fm::kS3);
  ps = std::fma(z, ps, fm::kS2);
  ps = std::fma(z, ps, fm::kS1);
  const double psin = std::fma(z * r, ps, r);
  double pc = std::fma(z, fm::kC6, fm::kC5);
  pc = std::fma(z, pc, fm::kC4);
  pc = std::fma(z, pc, fm::kC3);
  pc = std::fma(z, pc, fm::kC2);
  pc = std::fma(z, pc, fm::kC1);
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double pcos = w + (((1.0 - w) - hz) + z * (z * pc));
  // Quadrant: sin = {s, c, -s, -c}[n & 3], cos = {c, -s, -c, s}[n & 3].
  // kd is integral, so the truncating cast equals the vector's
  // round-to-nearest int conversion; the sign flips are exact sign-bit
  // xors, identical to the vector's _mm256_xor_pd.
  const auto n = static_cast<std::int64_t>(kd);
  const bool odd = (n & 1) != 0;
  double s = odd ? pcos : psin;
  double c = odd ? psin : pcos;
  if ((n & 2) != 0) s = -s;
  if (((n + 1) & 2) != 0) c = -c;
  s_out = s;
  c_out = c;
}

/// sin(x) alone (same kernel; the cos is dead code the optimizer drops).
inline double sin(double x) {
  double s, c;
  sincos(x, s, c);
  return s;
}

/// log(x) for finite normal positive x — bitwise mirror of one lane of
/// simdmath::vlog_pos.
inline double log_pos(double x) {
  namespace fm = fastmath::detail;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // 64-bit lane arithmetic wraps mod 2^64 exactly like _mm256_sub_epi64;
  // the final value fits int32, matching the vector's cvtepi32 compress.
  std::uint64_t k = (bits >> 52) - 1023;
  const std::uint64_t hi20 = (bits >> 32) & 0xfffff;
  const std::uint64_t i20 = (hi20 + 0x95f64) & 0x100000;
  k += i20 >> 20;
  const std::uint64_t mant = bits & 0x000fffffffffffffULL;
  const std::uint64_t expfield = (i20 ^ 0x3ff00000ULL) << 32;
  const double m = std::bit_cast<double>(mant | expfield);
  const double dk = static_cast<double>(static_cast<std::int64_t>(k));
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 =
      w * std::fma(w, std::fma(w, fm::kLg6, fm::kLg4), fm::kLg2);
  const double t2 =
      z * std::fma(w, std::fma(w, std::fma(w, fm::kLg7, fm::kLg5), fm::kLg3),
                   fm::kLg1);
  const double r = t2 + t1;
  const double hfsq = 0.5 * (f * f);
  // dk*ln2_hi - ((hfsq - (s*(hfsq+r) + dk*ln2_lo)) - f)
  const double inner = std::fma(dk, fm::kLn2Lo, s * (hfsq + r));
  return std::fma(dk, fm::kLn2Hi, f - (hfsq - inner));
}

/// 2^x for |x| <= 256 — bitwise mirror of one lane of simdmath::vexp2.
inline double exp2(double x) {
  const double kd = std::nearbyint(x);
  const double t = (x - kd) * std::numbers::ln2;
  double p = 1.0 / 479001600.0;  // 1/12!
  p = std::fma(t, p, 1.0 / 39916800.0);
  p = std::fma(t, p, 1.0 / 3628800.0);
  p = std::fma(t, p, 1.0 / 362880.0);
  p = std::fma(t, p, 1.0 / 40320.0);
  p = std::fma(t, p, 1.0 / 5040.0);
  p = std::fma(t, p, 1.0 / 720.0);
  p = std::fma(t, p, 1.0 / 120.0);
  p = std::fma(t, p, 1.0 / 24.0);
  p = std::fma(t, p, 1.0 / 6.0);
  p = std::fma(t, p, 0.5);
  p = std::fma(t, p, 1.0);
  p = std::fma(t, p, 1.0);
  // Exact 2^k via the exponent field; kd is integral and |kd| <= 256.
  const auto k = static_cast<std::int64_t>(kd);
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

}  // namespace mobiwlan::lanemath
