// SIMD dispatch override: the scalar and AVX2+FMA kernel variants must
// produce the same channels, the tier override must actually reach every
// dispatch site, and the environment knobs must reject unknown spellings.
//
// Runs the golden channel realizations (the same eight the equivalence
// fixtures pin) once per variant through the full noisy pipeline —
// the channel engine (chan/channel_batch.cpp) and the Box-Muller noise
// fill (util/rng.cpp) both resolve the tier per call, which is what this
// test leans on. On hosts without AVX2+FMA both runs take the scalar path
// and the comparison is trivially exact; ctest also re-runs this binary
// under MOBIWLAN_SIMD_TIER=scalar|avx2|avx512 (label precision).
#include "util/simd.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chan/channel.hpp"
#include "channel_golden_cases.hpp"

namespace mobiwlan {
namespace {

/// Restores the tier override (and therefore env semantics) on exit.
struct ForcedTierGuard {
  explicit ForcedTierGuard(int tier) { simd::set_forced_tier(tier); }
  ~ForcedTierGuard() { simd::set_forced_tier(-1); }
};

/// Full noisy samples of one golden channel at 10 Hz over 3 s.
std::vector<ChannelSample> sample_channel(std::size_t case_idx) {
  auto channel = goldencase::make_golden_channel(case_idx);
  std::vector<ChannelSample> out;
  for (double t = 0.0; t < 3.0; t += 0.1) out.push_back(channel->sample(t));
  return out;
}

TEST(SimdDispatchTest, ForcedTierClampsToHostSupport) {
  const simd::Tier best = simd::best_supported_tier();
  {
    ForcedTierGuard guard(0);
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
    EXPECT_FALSE(simd::use_avx2fma());
  }
  {
    // A tier the host lacks degrades gracefully to the best it has; a tier
    // at or below the best is honored exactly.
    ForcedTierGuard guard(1);
    EXPECT_EQ(simd::active_tier(),
              best < simd::Tier::kAvx2 ? best : simd::Tier::kAvx2);
  }
  {
    ForcedTierGuard guard(2);
    EXPECT_EQ(simd::active_tier(), best);  // avx512 -> avx2 -> scalar
    EXPECT_EQ(simd::use_avx2fma(), simd::avx2fma_supported());
  }
  {
    ForcedTierGuard guard(99);  // out-of-range requests clamp to avx512
    EXPECT_EQ(simd::active_tier(), best);
  }
}

TEST(SimdDispatchTest, TierEnvVarHonoredWhenNoOverride) {
  // set_forced_tier(-1) defers to MOBIWLAN_SIMD_TIER; ctest re-runs this
  // binary under each tier, so assert consistency with whatever the
  // environment says rather than pinning one value.
  simd::set_forced_tier(-1);
  const char* tier_env = std::getenv("MOBIWLAN_SIMD_TIER");
  const simd::Tier best = simd::best_supported_tier();
  if (tier_env == nullptr || *tier_env == '\0') {
    EXPECT_EQ(simd::active_tier(), best);
    return;
  }
  const simd::Tier requested = simd::parse_tier(tier_env);
  EXPECT_EQ(simd::active_tier(), requested < best ? requested : best);
}

TEST(SimdDispatchTest, EnvSpellingsParseExactly) {
  EXPECT_EQ(simd::parse_tier("scalar"), simd::Tier::kScalar);
  EXPECT_EQ(simd::parse_tier("avx2"), simd::Tier::kAvx2);
  EXPECT_EQ(simd::parse_tier("avx512"), simd::Tier::kAvx512);
  EXPECT_EQ(simd::parse_precision("fp32"), simd::Precision::kFloat32);
  EXPECT_EQ(simd::parse_precision("fp64"), simd::Precision::kFloat64);
}

TEST(SimdDispatchTest, EnvRejectsUnknownSpellings) {
  // A near-miss used to run a different kernel set without a word
  // (AVX2 -> best tier, FP32 -> fp64); now it names the variable, the value
  // and what is accepted.
  for (const char* bad : {"AVX2", "avx-2", "Scalar", "avx2 ", "sse4", "1"}) {
    SCOPED_TRACE(bad);
    try {
      simd::parse_tier(bad);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MOBIWLAN_SIMD_TIER"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("scalar, avx2, avx512"), std::string::npos) << what;
    }
  }
  for (const char* bad : {"FP32", "float32", "f32", "fp16", "double"}) {
    SCOPED_TRACE(bad);
    try {
      simd::parse_precision(bad);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MOBIWLAN_PRECISION"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("fp32, fp64"), std::string::npos) << what;
    }
  }
}

TEST(SimdDispatchTest, PrecisionOverrideAndDefault) {
  // The default precision obeys MOBIWLAN_PRECISION (unset means fp64); the
  // hook overrides it in both directions and -1 restores deference.
  simd::set_forced_precision(-1);
  const char* env = std::getenv("MOBIWLAN_PRECISION");
  const bool env_f32 = env != nullptr && std::string(env) == "fp32";
  EXPECT_EQ(simd::active_precision() == simd::Precision::kFloat32, env_f32);
  simd::set_forced_precision(1);
  EXPECT_EQ(simd::active_precision(), simd::Precision::kFloat32);
  simd::set_forced_precision(0);
  EXPECT_EQ(simd::active_precision(), simd::Precision::kFloat64);
  simd::set_forced_precision(-1);
  EXPECT_EQ(simd::active_precision() == simd::Precision::kFloat32, env_f32);
}

TEST(SimdDispatchTest, TierAndPrecisionNames) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx512), "avx512");
  EXPECT_STREQ(simd::precision_name(simd::Precision::kFloat64), "fp64");
  EXPECT_STREQ(simd::precision_name(simd::Precision::kFloat32), "fp32");
}

TEST(SimdDispatchTest, ScalarAndSimdChannelsAgreeOnGoldenCases) {
  for (std::size_t idx = 0; idx < goldencase::kNumCases; ++idx) {
    SCOPED_TRACE(goldencase::case_name(idx));
    std::vector<ChannelSample> scalar, dispatched;
    {
      ForcedTierGuard guard(0);
      scalar = sample_channel(idx);
    }
    {
      ForcedTierGuard guard(2);  // the best tier the host has
      dispatched = sample_channel(idx);
    }
    ASSERT_EQ(scalar.size(), dispatched.size());
    for (std::size_t k = 0; k < scalar.size(); ++k) {
      const ChannelSample& a = scalar[k];
      const ChannelSample& b = dispatched[k];
      // Same numerical-equivalence budget as the golden fixtures: the AVX2
      // variants reproduce the scalar arithmetic (FMA contraction included)
      // to <= 1e-12 on every observable.
      EXPECT_NEAR(a.rssi_dbm, b.rssi_dbm, 1e-12) << "sample " << k;
      EXPECT_NEAR(a.snr_db, b.snr_db, 1e-12) << "sample " << k;
      EXPECT_NEAR(a.tof_cycles, b.tof_cycles, 1e-12) << "sample " << k;
      ASSERT_EQ(a.csi.raw().size(), b.csi.raw().size());
      for (std::size_t e = 0; e < a.csi.raw().size(); ++e) {
        EXPECT_NEAR(a.csi.raw()[e].real(), b.csi.raw()[e].real(), 1e-12)
            << "sample " << k << " entry " << e;
        EXPECT_NEAR(a.csi.raw()[e].imag(), b.csi.raw()[e].imag(), 1e-12)
            << "sample " << k << " entry " << e;
      }
    }
  }
}

}  // namespace
}  // namespace mobiwlan
