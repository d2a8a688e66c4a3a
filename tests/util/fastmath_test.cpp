// fastmath accuracy: sincos_wide and log_pos against libm, in ulps, across
// the phase range the noise and synthesis draw from, plus exact pinning of
// the grid edges.
//
// The header promises ~2 ulp for sincos_wide (checked on |x| <= 25) and
// ~1 ulp for log_pos on finite normal positives. Near the trig zeros
// (x ~ k*pi) a relative (ulp) bound is meaningless — the reduction's ~1e-17
// absolute error is astronomically many ulps of a ~1e-17 result — so the
// check there falls back to an absolute budget derived from the reduction
// error.
#include "util/fastmath.hpp"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "util/lanef.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan {
namespace {

/// Distance in representable doubles between a and b (same-sign finite).
std::uint64_t ulp_distance(double a, double b) {
  auto ordered = [](double x) -> std::int64_t {
    const std::int64_t bits = std::bit_cast<std::int64_t>(x);
    return bits >= 0 ? bits : std::int64_t(0x8000000000000000ULL) - bits;
  };
  const std::int64_t da = ordered(a);
  const std::int64_t db = ordered(b);
  return static_cast<std::uint64_t>(da > db ? da - db : db - da);
}

/// The sincos_wide grids span |x| <= 25: |k| <= 16 quadrants either side.
constexpr double kGridMaxArg = 25.0;

/// sincos bound: <= 4 ulp, or <= 1e-16 absolute near the zeros where the
/// result underflows the relative scale.
void expect_sincos_close(double x) {
  double s = 0.0, c = 0.0;
  fastmath::sincos_wide(x, s, c);
  const double rs = std::sin(x);
  const double rc = std::cos(x);
  EXPECT_TRUE(ulp_distance(s, rs) <= 4 || std::abs(s - rs) <= 1e-16)
      << "sin(" << x << "): got " << s << " want " << rs << " ("
      << ulp_distance(s, rs) << " ulp)";
  EXPECT_TRUE(ulp_distance(c, rc) <= 4 || std::abs(c - rc) <= 1e-16)
      << "cos(" << x << "): got " << c << " want " << rc << " ("
      << ulp_distance(c, rc) << " ulp)";
}

void expect_log_close(double x) {
  const double got = fastmath::log_pos(x);
  const double want = std::log(x);
  EXPECT_TRUE(ulp_distance(got, want) <= 2 || std::abs(got - want) <= 1e-18)
      << "log(" << x << "): got " << got << " want " << want << " ("
      << ulp_distance(got, want) << " ulp)";
}

TEST(FastmathTest, SincosGridAcrossDomain) {
  // Dense uniform grid over the whole grid range, hitting both halves.
  const double lim = kGridMaxArg;
  const int n = 200001;
  for (int i = 0; i < n; ++i) {
    const double x = -lim + (2.0 * lim) * static_cast<double>(i) /
                               static_cast<double>(n - 1);
    expect_sincos_close(x);
    if (::testing::Test::HasFailure()) break;  // one report, not 200k
  }
}

TEST(FastmathTest, SincosNearReductionBoundaries) {
  // Points adjacent to k*pi/2, where the reduced argument is smallest and
  // the quadrant switch in the kernel happens: the worst spots for both
  // cancellation and an off-by-one k.
  for (int k = -16; k <= 16; ++k) {
    const double boundary = static_cast<double>(k) * (M_PI / 2.0);
    if (std::abs(boundary) > kGridMaxArg) continue;
    for (const double eps :
         {0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4}) {
      const double x = boundary + eps;
      if (std::abs(x) > kGridMaxArg) continue;
      expect_sincos_close(x);
    }
  }
}

TEST(FastmathTest, SincosRandomPoints) {
  Rng rng(20140204);
  for (int i = 0; i < 100000; ++i) {
    expect_sincos_close(rng.uniform(-kGridMaxArg,
                                    kGridMaxArg));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FastmathTest, SincosDomainEdges) {
  // Exact identities at 0 and sanity exactly at the grid limits.
  double s = 0.0, c = 0.0;
  fastmath::sincos_wide(0.0, s, c);
  EXPECT_EQ(s, 0.0);
  EXPECT_EQ(c, 1.0);
  fastmath::sincos_wide(-0.0, s, c);
  EXPECT_EQ(s, -0.0);
  EXPECT_EQ(c, 1.0);
  expect_sincos_close(kGridMaxArg);
  expect_sincos_close(-kGridMaxArg);
  expect_sincos_close(std::nextafter(kGridMaxArg, 0.0));
  expect_sincos_close(std::nextafter(-kGridMaxArg, 0.0));
}

TEST(FastmathTest, LogAcrossMagnitudes) {
  // Exponential sweep across the full normal range plus a dense linear one
  // around 1, where log() cancellation is most delicate.
  for (double x = DBL_MIN; x < 1e300; x *= 1.7) expect_log_close(x);
  for (int i = -1000; i <= 1000; ++i)
    expect_log_close(1.0 + static_cast<double>(i) * 1e-6);
  Rng rng(20140204);
  for (int i = 0; i < 100000; ++i) {
    expect_log_close(std::exp(rng.uniform(-700.0, 700.0)));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FastmathTest, LogDomainEdges) {
  EXPECT_EQ(fastmath::log_pos(1.0), 0.0);  // exact by construction (k=0, f=0)
  expect_log_close(DBL_MIN);                       // smallest normal
  expect_log_close(DBL_MAX);                       // largest finite
  expect_log_close(std::nextafter(1.0, 0.0));      // 1 - ulp
  expect_log_close(std::nextafter(1.0, 2.0));      // 1 + ulp
  expect_log_close(2.0);
  expect_log_close(0.5);
  // sqrt(2)/2 boundary of the significand normalization, both sides.
  expect_log_close(std::nextafter(M_SQRT1_2, 0.0));
  expect_log_close(std::nextafter(M_SQRT1_2, 1.0));
}

// ---------------------------------------------------------------------------
// fp32 sincos — same shape as the fp64 suites above, with the bounds in
// float ulps (1 ulp_f32 ~ 1.19e-7 relative) against the double-precision
// libm evaluation rounded to float.
// ---------------------------------------------------------------------------

/// Distance in representable floats between a and b (same-sign finite).
std::uint32_t ulp_distance_f32(float a, float b) {
  auto ordered = [](float x) -> std::int32_t {
    const std::int32_t bits = std::bit_cast<std::int32_t>(x);
    return bits >= 0 ? bits : std::int32_t(0x80000000UL) - bits;
  };
  const std::int32_t da = ordered(a);
  const std::int32_t db = ordered(b);
  return static_cast<std::uint32_t>(da > db ? da - db : db - da);
}

/// sincos_f32 bound: <= 4 ulp_f32, or <= 4e-7 absolute near the trig zeros
/// (the float analogue of the fp64 budget: reduction error ~2^-30 plus the
/// polynomial's few-ulp tail).
void expect_sincos_f32_close(float x) {
  float s = 0.0f, c = 0.0f;
  fastmath::sincos_f32(x, s, c);
  const float rs = static_cast<float>(std::sin(static_cast<double>(x)));
  const float rc = static_cast<float>(std::cos(static_cast<double>(x)));
  EXPECT_TRUE(ulp_distance_f32(s, rs) <= 4 || std::abs(s - rs) <= 4e-7f)
      << "sincos_f32 sin(" << x << "): got " << s << " want " << rs << " ("
      << ulp_distance_f32(s, rs) << " ulp_f32)";
  EXPECT_TRUE(ulp_distance_f32(c, rc) <= 4 || std::abs(c - rc) <= 4e-7f)
      << "sincos_f32 cos(" << x << "): got " << c << " want " << rc << " ("
      << ulp_distance_f32(c, rc) << " ulp_f32)";
}

TEST(FastmathF32Test, SincosGridAcrossDomain) {
  const float lim = fastmath::kSincosF32MaxArg;
  const int n = 200001;
  for (int i = 0; i < n; ++i) {
    const float x =
        -lim + (2.0f * lim) * static_cast<float>(i) / static_cast<float>(n - 1);
    expect_sincos_f32_close(x);
    if (::testing::Test::HasFailure()) break;  // one report, not 200k
  }
}

TEST(FastmathF32Test, SincosNearReductionBoundaries) {
  // Adjacent to k*pi/2: smallest reduced argument and the quadrant switch —
  // the worst spots for cancellation and an off-by-one k. The float grid of
  // offsets reaches down to 1 ulp of the boundary itself.
  for (int k = -40; k <= 40; ++k) {
    const float boundary =
        static_cast<float>(static_cast<double>(k) * (M_PI / 2.0));
    if (std::abs(boundary) > fastmath::kSincosF32MaxArg) continue;
    for (const float eps : {0.0f, 1e-7f, -1e-7f, 1e-5f, -1e-5f, 1e-3f, -1e-3f,
                            1e-1f, -1e-1f}) {
      const float x = boundary + eps;
      if (std::abs(x) > fastmath::kSincosF32MaxArg) continue;
      expect_sincos_f32_close(x);
    }
    expect_sincos_f32_close(std::nextafterf(boundary, 2.0f * boundary));
    expect_sincos_f32_close(std::nextafterf(boundary, 0.0f));
  }
}

TEST(FastmathF32Test, SincosRandomPoints) {
  Rng rng(20140204);
  for (int i = 0; i < 100000; ++i) {
    expect_sincos_f32_close(static_cast<float>(rng.uniform(
        -fastmath::kSincosF32MaxArg, fastmath::kSincosF32MaxArg)));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FastmathF32Test, SincosDomainEdges) {
  float s = 0.0f, c = 0.0f;
  fastmath::sincos_f32(0.0f, s, c);
  EXPECT_EQ(s, 0.0f);
  EXPECT_EQ(c, 1.0f);
  fastmath::sincos_f32(-0.0f, s, c);
  EXPECT_EQ(s, -0.0f);
  EXPECT_EQ(c, 1.0f);
  // Exactly at and one float ulp inside the documented range limit.
  expect_sincos_f32_close(fastmath::kSincosF32MaxArg);
  expect_sincos_f32_close(-fastmath::kSincosF32MaxArg);
  expect_sincos_f32_close(std::nextafterf(fastmath::kSincosF32MaxArg, 0.0f));
  expect_sincos_f32_close(std::nextafterf(-fastmath::kSincosF32MaxArg, 0.0f));
  // Denormal inputs: sin(x) = x and cos(x) = 1 to every representable bit.
  for (const float x : {FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN / 2.0f}) {
    fastmath::sincos_f32(x, s, c);
    EXPECT_EQ(s, x);
    EXPECT_EQ(c, 1.0f);
  }
}

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// Tier agreement sweep: the vector fp32 sincos promises lane-for-lane
// agreement with the scalar fp32 path to ~1 ulp_f32 (same constants, same
// evaluation order — the only slack is the compiler's freedom over non-fused
// scalar ops). The sweep drives all three tiers over the same random
// batches and pins scalar-vs-avx2 to <= 1 ulp_f32 and avx2-vs-avx512 to
// bitwise equality (one polynomial, compiled at both widths). Each wider
// tier is gated on host support — a loud GTEST_SKIP, not a silent pass,
// when the ISA is absent.
// ---------------------------------------------------------------------------

/// One 16-lane batch of sincos at every supported tier.
struct TierSweepOut {
  float scalar_sin[16], scalar_cos[16];
  float avx2_sin[16], avx2_cos[16];
  float avx512_sin[16], avx512_cos[16];
};

__attribute__((target("avx2,fma"))) void run_avx2_batch(const float* x_trig,
                                                        TierSweepOut& out) {
  for (int half = 0; half < 2; ++half) {
    __m256 s, c;
    lanef::sincos(_mm256_loadu_ps(x_trig + 8 * half), s, c);
    _mm256_storeu_ps(out.avx2_sin + 8 * half, s);
    _mm256_storeu_ps(out.avx2_cos + 8 * half, c);
  }
}

__attribute__((target("avx2,fma,avx512f,avx512dq,avx512vl"))) void
run_avx512_batch(const float* x_trig, TierSweepOut& out) {
  __m512 s, c;
  lanef::sincos(_mm512_loadu_ps(x_trig), s, c);
  _mm512_storeu_ps(out.avx512_sin, s);
  _mm512_storeu_ps(out.avx512_cos, c);
}

TEST(FastmathF32Test, TierAgreementSweep) {
  if (!simd::avx2fma_supported())
    GTEST_SKIP() << "host lacks AVX2+FMA: vector fp32 kernels unavailable, "
                    "agreement sweep not run";
  const bool avx512 = simd::avx512_supported();
  if (!avx512)
    std::fputs(
        "[  NOTE    ] host lacks AVX-512 (f/dq/vl): sweep covers "
        "scalar-vs-avx2 only\n",
        stderr);
  Rng rng(20140204);
  TierSweepOut out;
  float x_trig[16];
  for (int batch = 0; batch < 2000; ++batch) {
    for (int i = 0; i < 16; ++i) {
      x_trig[i] = static_cast<float>(rng.uniform(
          -fastmath::kSincosF32MaxArg, fastmath::kSincosF32MaxArg));
      fastmath::sincos_f32(x_trig[i], out.scalar_sin[i], out.scalar_cos[i]);
    }
    run_avx2_batch(x_trig, out);
    if (avx512) run_avx512_batch(x_trig, out);
    for (int i = 0; i < 16; ++i) {
      EXPECT_LE(ulp_distance_f32(out.scalar_sin[i], out.avx2_sin[i]), 1u)
          << "sin lane " << i << " x=" << x_trig[i];
      EXPECT_LE(ulp_distance_f32(out.scalar_cos[i], out.avx2_cos[i]), 1u)
          << "cos lane " << i << " x=" << x_trig[i];
      if (avx512) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out.avx2_sin[i]),
                  std::bit_cast<std::uint32_t>(out.avx512_sin[i]))
            << "sin lane " << i << " x=" << x_trig[i];
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out.avx2_cos[i]),
                  std::bit_cast<std::uint32_t>(out.avx512_cos[i]))
            << "cos lane " << i << " x=" << x_trig[i];
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
}

#endif  // defined(__x86_64__)

}  // namespace
}  // namespace mobiwlan
