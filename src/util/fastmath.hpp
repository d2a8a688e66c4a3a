// fastmath.hpp — inline scalar transcendentals and their constants.
//
// glibc's sincos costs ~20 ns/call on typical hosts (more at carrier-scale
// arguments, which need its large-argument reduction), and the channel
// sampler needs one per CSI noise draw plus several per path in synthesis.
// This header holds the classic fdlibm kernels — argument reduction by pi/2
// plus minimax polynomials on [-pi/4, pi/4] for sincos_wide, the atanh
// series for log_pos — which inline to ~25 flops and agree with libm to
// within ~2 ulp, far inside the 1e-12 numerical-equivalence budget the
// channel is held to (tests/chan/channel_equivalence_test.cpp). They are the
// scalar reference of the 4-lane fp64 kernels (util/lane4_math.inc), which
// share these constants, and of the fp32 sincos (util/lanef_sincos.inc).
//
// sincos_wide covers |x| <= kSincosWideMaxArg, the whole carrier-scale
// phase range; only a phase beyond it falls back to libm
// (chan/channel_batch.cpp's wide-argument path).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace mobiwlan::fastmath {

namespace detail {

// fdlibm __kernel_sin / __kernel_cos minimax coefficients on [-pi/4, pi/4].
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;

// pi/2 split for Cody-Waite reduction: pio2_hi has 33 significant bits, so
// k * pio2_hi is exact for |k| < 2^20; pio2_lo supplies the next 71 bits.
inline constexpr double kTwoOverPi = 6.36619772367581382433e-01;
inline constexpr double kPio2Hi = 1.57079632673412561417e+00;
inline constexpr double kPio2Lo = 6.07710050650619224932e-11;

inline double poly_sin(double r) {
  const double z = r * r;
  const double p = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  return r + (z * r) * (kS1 + z * p);
}

inline double poly_cos(double r) {
  const double z = r * r;
  const double p = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  return w + ((1.0 - w) - hz + z * p);
}

// fdlibm __ieee754_log: ln2 split plus the atanh-series coefficients for
// log((2+f)/(2-f)) evaluated at s = f/(2+f).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;

}  // namespace detail

/// log(x) for finite normal x > 0, accurate to ~1 ulp (fdlibm kernel, no
/// special-case branches: subnormals, zero, negatives and non-finite inputs
/// are the caller's responsibility).
inline double log_pos(double x) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  std::uint32_t hx = static_cast<std::uint32_t>(bits >> 32);
  int k = static_cast<int>(hx >> 20) - 1023;
  hx &= 0x000fffffu;
  // Normalize the significand into [sqrt(2)/2, sqrt(2)) so f = m - 1 stays
  // small; the rounding constant picks the closer of m or m/2.
  const std::uint32_t i = (hx + 0x95f64u) & 0x100000u;
  k += static_cast<int>(i >> 20);
  bits = (static_cast<std::uint64_t>(hx | (i ^ 0x3ff00000u)) << 32) |
         (bits & 0xffffffffu);
  const double m = std::bit_cast<double>(bits);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (detail::kLg2 + w * (detail::kLg4 + w * detail::kLg6));
  const double t2 =
      z * (detail::kLg1 + w * (detail::kLg3 + w * (detail::kLg5 + w * detail::kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double dk = static_cast<double>(k);
  return dk * detail::kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * detail::kLn2Lo)) - f);
}

/// Largest |x| for which sincos_wide() holds its accuracy bound. k = round(x *
/// 2/pi) stays below 2^20, so k * pio2_hi (33 significant bits) is exact and
/// the k * pio2_lo correction still carries the full tail of pi/2.
inline constexpr double kSincosWideMaxArg = 1.0e6;

/// sin(x) and cos(x) for |x| <= kSincosWideMaxArg, accurate to ~2 ulp over
/// the carrier-scale phase range (-2*pi*f_c*tau is tens of thousands of
/// radians for indoor path delays). Two-term Cody-Waite reduction:
/// x - k*pio2_hi is exact by Sterbenz (the two agree to within pi/4), and
/// the neglected tail of pi/2 beyond pio2_hi + pio2_lo contributes
/// < k * 1e-26 ~ 1e-20 rad of phase error — orders of magnitude inside the
/// 1e-12 equivalence budget, where libm's sincos costs ~16 ns at these
/// magnitudes (large-argument reduction).
inline void sincos_wide(double x, double& sin_out, double& cos_out) {
  // lrint rounds like nearbyint (to nearest, ties to even, in the default
  // rounding mode) but compiles to one conversion at the baseline ISA.
  const long k = std::lrint(x * detail::kTwoOverPi);
  const double kd = static_cast<double>(k);
  const double r = (x - kd * detail::kPio2Hi) - kd * detail::kPio2Lo;
  const double s = detail::poly_sin(r);
  const double c = detail::poly_cos(r);
  switch (k & 3) {
    case 0: sin_out = s; cos_out = c; break;
    case 1: sin_out = c; cos_out = -s; break;
    case 2: sin_out = -s; cos_out = -c; break;
    default: sin_out = -c; cos_out = s; break;
  }
}

/// log10(x) for finite normal x > 0, via log_pos. Relative error ~2 ulp.
inline double log10_pos(double x) {
  return log_pos(x) * 0.43429448190325176;  // 1/ln(10)
}

// ---------------------------------------------------------------------------
// fp32 sincos — the scalar reference for the float32 precision tier.
//
// The fp32 tier's one transcendental is sincos: the per-path phases become
// phasors in float, while amplitudes, noise and similarity stay fp64. This
// is the single-precision port of sincos_wide above, evaluated entirely in
// float; lanef::sincos (util/lanef.hpp) performs the same operation
// sequence 8 or 16 lanes wide. Accuracy bounds are in *float* ulps (1
// ulp_f32 ~ 1.19e-7 relative). The fp32 channel tier calls it only on
// pre-reduced arguments: phases beyond the float range are reduced in
// double first (chan/channel_batch.cpp), because a float simply cannot
// represent a carrier-scale phase to better than ~1e-2 rad.
// ---------------------------------------------------------------------------

/// Largest |x| for which sincos_f32 holds its bound: k = round(x * 2/pi)
/// stays below 2^10, so k * kPio2AF (14 significand bits) is exact in float
/// and the B/C correction terms carry the tail of pi/2.
inline constexpr float kSincosF32MaxArg = 1024.0f;

namespace detail {

// pi/2 split for the float Cody-Waite reduction (half the sleef PI_*2f
// split of pi): A carries 14 significand bits so k*A is exact for
// |k| < 2^10; B and C supply the next ~46 bits via FMA.
inline constexpr float kTwoOverPiF = 6.3661977e-01f;
inline constexpr float kPio2AF = 1.57073974609375f;
inline constexpr float kPio2BF = 5.657970905303955078125e-05f;
inline constexpr float kPio2CF = 9.9209363648873916e-10f;

// cephes sinf/cosf minimax coefficients on [-pi/4, pi/4].
inline constexpr float kSF1 = -1.6666654611e-01f;
inline constexpr float kSF2 = 8.3321608736e-03f;
inline constexpr float kSF3 = -1.9515295891e-04f;
inline constexpr float kCF1 = 4.166664568298827e-02f;
inline constexpr float kCF2 = -1.388731625493765e-03f;
inline constexpr float kCF3 = 2.443315711809948e-05f;

inline float poly_sin_f32(float r) {
  const float z = r * r;
  const float p = kSF1 + z * (kSF2 + z * kSF3);
  return r + (z * r) * p;
}

inline float poly_cos_f32(float r) {
  const float z = r * r;
  const float p = z * z * (kCF1 + z * (kCF2 + z * kCF3));
  return (1.0f - 0.5f * z) + p;
}

}  // namespace detail

/// sin(x) and cos(x) in float for |x| <= kSincosF32MaxArg, accurate to
/// ~2 ulp_f32 (absolute error <= ~2e-7 near the trig zeros, where a
/// relative bound is meaningless).
inline void sincos_f32(float x, float& sin_out, float& cos_out) {
  const float kd = std::nearbyintf(x * detail::kTwoOverPiF);
  // Three-term Cody-Waite; written as fused ops so scalar and vector
  // evaluations agree to rounding (the vector kernels use FMA).
  float r = std::fmaf(kd, -detail::kPio2AF, x);
  r = std::fmaf(kd, -detail::kPio2BF, r);
  r = std::fmaf(kd, -detail::kPio2CF, r);
  const float s = detail::poly_sin_f32(r);
  const float c = detail::poly_cos_f32(r);
  switch (static_cast<long>(kd) & 3) {
    case 0: sin_out = s; cos_out = c; break;
    case 1: sin_out = c; cos_out = -s; break;
    case 2: sin_out = -s; cos_out = -c; break;
    default: sin_out = -c; cos_out = s; break;
  }
}

}  // namespace mobiwlan::fastmath
