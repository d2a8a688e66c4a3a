// simd_math domain edges: every vector transcendental documents an input
// domain (|x| <= kSincosWideMaxArg for lane4::sincos, |x| <= 256 for
// lane4::exp2, positive normal finite for lane4::log_pos, |x| <=
// kSincosF32MaxArg for the 8- and 16-lane fp32 lanef::sincos). This suite
// pins two things:
//   1. the extreme *valid* inputs — exactly at the documented edges —
//      produce finite results that agree with the scalar reference (a
//      regression net for the reduction constants, whose failure mode is
//      precisely "fine in the middle, garbage at the edge");
//   2. in debug builds (no NDEBUG), an out-of-domain lane trips the range
//      assertion instead of silently returning garbage — death tests,
//      compiled out of NDEBUG builds where the assertions are no-ops by
//      design.
// The fp64 kernels run at the scalar tier on every host and at the AVX2
// tier where the host has it.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "util/fastmath.hpp"
#include "util/lane4.hpp"
#include "util/lanef.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__)

namespace mobiwlan {
namespace {

// scalar_tier:: and avx2_tier:: sincos4 / log_pos4 / exp2_4.
#define MOBIWLAN_LANE4_BODY "util/lane4_calls.inc"
#include "util/lane4_tiers.inc"

std::uint64_t ulp_distance(double a, double b) {
  auto ordered = [](double x) -> std::int64_t {
    const std::int64_t bits = std::bit_cast<std::int64_t>(x);
    return bits >= 0 ? bits : std::int64_t(0x8000000000000000ULL) - bits;
  };
  const std::int64_t da = ordered(a);
  const std::int64_t db = ordered(b);
  return static_cast<std::uint64_t>(da > db ? da - db : db - da);
}

std::uint32_t ulp_distance_f32(float a, float b) {
  auto ordered = [](float x) -> std::int32_t {
    const std::int32_t bits = std::bit_cast<std::int32_t>(x);
    return bits >= 0 ? bits : std::int32_t(0x80000000UL) - bits;
  };
  const std::int32_t da = ordered(a);
  const std::int32_t db = ordered(b);
  return static_cast<std::uint32_t>(da > db ? da - db : db - da);
}

// The exp2 kernel documents |x| <= 256 (see the assertion in
// lane4_math.inc); the fp64 result stays finite through the whole range.
constexpr double kExp2MaxArg = 256.0;

/// One fp64 tier's kernels on four arguments.
struct Fp64Tier {
  const char* name;
  void (*sincos4)(const double*, double*, double*);
  void (*log_pos4)(const double*, double*);
  void (*exp2_4)(const double*, double*);
};

/// The scalar tier, and the AVX2 tier where the host runs it.
std::vector<Fp64Tier> fp64_tiers() {
  std::vector<Fp64Tier> tiers{{"scalar", scalar_tier::sincos4,
                               scalar_tier::log_pos4, scalar_tier::exp2_4}};
  if (simd::avx2fma_supported())
    tiers.push_back({"avx2", avx2_tier::sincos4, avx2_tier::log_pos4,
                     avx2_tier::exp2_4});
  return tiers;
}

// Wrappers with the matching target attribute: a baseline-ISA function
// cannot inline the always_inline kernels. Each takes 8/16 scalar inputs
// and returns the lanes so the checks below run in plain code.

__attribute__((target("avx2,fma"))) void sincos8_f32(const float* x, float* s,
                                                     float* c) {
  __m256 vs, vc;
  lanef::sincos(_mm256_loadu_ps(x), vs, vc);
  _mm256_storeu_ps(s, vs);
  _mm256_storeu_ps(c, vc);
}

__attribute__((target("avx2,fma,avx512f,avx512dq,avx512vl"))) void
sincos16_f32(const float* x, float* s, float* c) {
  __m512 vs, vc;
  lanef::sincos(_mm512_loadu_ps(x), vs, vc);
  _mm512_storeu_ps(s, vs);
  _mm512_storeu_ps(c, vc);
}

TEST(SimdMathTest, Fp64DomainEdgesMatchScalar) {
  for (const Fp64Tier& tier : fp64_tiers()) {
    SCOPED_TRACE(tier.name);

    // sincos at the wide-reduction limit, both signs, plus one ulp inside.
    const double lim = fastmath::kSincosWideMaxArg;
    const double xs[4] = {lim, -lim, std::nextafter(lim, 0.0),
                          std::nextafter(-lim, 0.0)};
    double s[4], c[4];
    tier.sincos4(xs, s, c);
    for (int i = 0; i < 4; ++i) {
      double rs, rc;
      fastmath::sincos_wide(xs[i], rs, rc);
      EXPECT_TRUE(std::isfinite(s[i]) && std::isfinite(c[i]))
          << "x=" << xs[i];
      EXPECT_LE(ulp_distance(s[i], rs), 1u) << "sin x=" << xs[i];
      EXPECT_LE(ulp_distance(c[i], rc), 1u) << "cos x=" << xs[i];
    }

    // log_pos at the extremes of the positive normal range.
    const double xl[4] = {DBL_MIN, DBL_MAX, std::nextafter(DBL_MIN, 1.0),
                          std::nextafter(DBL_MAX, 0.0)};
    double l[4];
    tier.log_pos4(xl, l);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(std::isfinite(l[i])) << "x=" << xl[i];
      EXPECT_LE(ulp_distance(l[i], fastmath::log_pos(xl[i])), 1u)
          << "log x=" << xl[i];
    }

    // exp2 at its documented +/-256 edge: finite (2^256 ~ 1.2e77, and
    // 2^-256 is a normal double) and within the scalar budget of std::exp2.
    const double xe[4] = {kExp2MaxArg, -kExp2MaxArg,
                          std::nextafter(kExp2MaxArg, 0.0),
                          std::nextafter(-kExp2MaxArg, 0.0)};
    double e[4];
    tier.exp2_4(xe, e);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(std::isfinite(e[i]) && e[i] > 0.0) << "x=" << xe[i];
      EXPECT_LE(ulp_distance(e[i], std::exp2(xe[i])), 4u)
          << "exp2 x=" << xe[i];
    }
  }
}

TEST(SimdMathTest, Fp32DomainEdgesMatchScalar) {
  if (!simd::avx2fma_supported())
    GTEST_SKIP() << "host lacks AVX2+FMA: vector kernels unavailable";

  // 8 lanes loaded with the edges (padded by repeating the first).
  const float tlim = fastmath::kSincosF32MaxArg;
  const float xt[8] = {tlim, -tlim, std::nextafterf(tlim, 0.0f),
                       std::nextafterf(-tlim, 0.0f), 0.0f, -0.0f, tlim, -tlim};
  float s[16], c[16];
  sincos8_f32(xt, s, c);
  for (int i = 0; i < 8; ++i) {
    float rs, rc;
    fastmath::sincos_f32(xt[i], rs, rc);
    EXPECT_TRUE(std::isfinite(s[i]) && std::isfinite(c[i])) << "x=" << xt[i];
    EXPECT_LE(ulp_distance_f32(s[i], rs), 1u) << "sin x=" << xt[i];
    EXPECT_LE(ulp_distance_f32(c[i], rc), 1u) << "cos x=" << xt[i];
  }

  if (simd::avx512_supported()) {
    // The same edges through the 16-lane instantiation: bitwise-equal to
    // the 8-lane results (one polynomial, twice the width).
    float x16[16], s16[16], c16[16];
    for (int i = 0; i < 16; ++i) x16[i] = xt[i % 8];
    sincos16_f32(x16, s16, c16);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(s16[i]),
                std::bit_cast<std::uint32_t>(s[i % 8]))
          << "sin lane " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c16[i]),
                std::bit_cast<std::uint32_t>(c[i % 8]))
          << "cos lane " << i;
    }
  } else {
    std::fputs(
        "[  NOTE    ] host lacks AVX-512 (f/dq/vl): 16-lane edge checks "
        "not run\n",
        stderr);
  }
}

#if !defined(NDEBUG)

// Debug builds only: one out-of-domain lane must trip the range assertion.
// NDEBUG builds compile the assertions to no-ops, so these tests vanish
// with them — the release contract stays "caller's responsibility".

using SimdMathDeathTest = ::testing::Test;

void expect_fp64_out_of_domain_trips(const Fp64Tier& tier) {
  double out[4], s[4], c[4];
  const double bad_exp[4] = {0.0, 0.0, kExp2MaxArg * 2.0, 0.0};
  EXPECT_DEATH(tier.exp2_4(bad_exp, out), "");
  const double bad_log[4] = {1.0, -1.0, 1.0, 1.0};  // negative lane
  EXPECT_DEATH(tier.log_pos4(bad_log, out), "");
  const double bad_trig[4] = {0.0, fastmath::kSincosWideMaxArg * 2.0, 0.0,
                              0.0};
  EXPECT_DEATH(tier.sincos4(bad_trig, s, c), "");
}

TEST(SimdMathDeathTest, Fp64ScalarOutOfDomainTrips) {
  expect_fp64_out_of_domain_trips(fp64_tiers()[0]);
}

TEST(SimdMathDeathTest, Fp64Avx2OutOfDomainTrips) {
  if (!simd::avx2fma_supported())
    GTEST_SKIP() << "host lacks AVX2+FMA: vector kernels unavailable";
  expect_fp64_out_of_domain_trips(fp64_tiers()[1]);
}

TEST(SimdMathDeathTest, Fp32OutOfDomainTrips) {
  if (!simd::avx2fma_supported())
    GTEST_SKIP() << "host lacks AVX2+FMA: vector kernels unavailable";
  float s[16], c[16];
  float bad_trig[16] = {};
  bad_trig[4] = 2048.0f;
  EXPECT_DEATH(sincos8_f32(bad_trig, s, c), "");
  if (simd::avx512_supported()) {
    bad_trig[4] = 0.0f;
    bad_trig[13] = -2048.0f;  // a lane only the 16-lane width reads
    EXPECT_DEATH(sincos16_f32(bad_trig, s, c), "");
  }
}

#endif  // !NDEBUG

}  // namespace
}  // namespace mobiwlan

#endif  // defined(__x86_64__)
