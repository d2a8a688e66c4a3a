// Tests for A-MPDU planning and the adaptive aggregation policy (§5).
#include "mac/aggregation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"
#include "phy/error_model.hpp"

namespace mobiwlan {
namespace {

TEST(AggregationPolicyTest, FixedPolicyIgnoresMode) {
  AggregationPolicy policy;
  policy.adaptive = false;
  policy.fixed_limit_s = 4e-3;
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, MobilityMode::kMacroAway), 4e-3);
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, std::nullopt), 4e-3);
}

TEST(AggregationPolicyTest, AdaptiveFollowsTable2) {
  AggregationPolicy policy;
  policy.adaptive = true;
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, MobilityMode::kStatic), 8e-3);
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, MobilityMode::kMicro), 2e-3);
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, MobilityMode::kMacroToward), 2e-3);
}

TEST(AggregationPolicyTest, AdaptiveWithoutClassificationFallsBack) {
  AggregationPolicy policy;
  policy.adaptive = true;
  policy.fixed_limit_s = 4e-3;
  EXPECT_DOUBLE_EQ(aggregation_limit_s(policy, std::nullopt), 4e-3);
}

TEST(AmpduPlanTest, PlanRespectsTimeLimit) {
  for (int mcs_index : {0, 4, 9, 15}) {
    for (double limit : {2e-3, 4e-3, 8e-3}) {
      const AmpduPlan plan = plan_ampdu(mcs(mcs_index), limit, 1500);
      EXPECT_GE(plan.n_mpdus, 1);
      // Allow preamble slack plus one MPDU of quantization.
      EXPECT_LE(plan.frame_airtime_s, limit + 1e-3) << mcs_index << " " << limit;
    }
  }
}

TEST(AmpduPlanTest, MoreTimeMoreMpdus) {
  const AmpduPlan small = plan_ampdu(mcs(12), 2e-3, 1500);
  const AmpduPlan large = plan_ampdu(mcs(12), 8e-3, 1500);
  EXPECT_GT(large.n_mpdus, small.n_mpdus);
}

TEST(AmpduPlanTest, AgeFractionsOrderedAndCentered) {
  const AmpduPlan plan = plan_ampdu(mcs(12), 4e-3, 1500);
  ASSERT_GT(plan.n_mpdus, 2);
  double prev = 0.0;
  for (int i = 0; i < plan.n_mpdus; ++i) {
    const double age = plan.mpdu_age_fraction(i);
    EXPECT_GT(age, prev);
    EXPECT_GT(age, 0.0);
    EXPECT_LT(age, 1.0);
    prev = age;
  }
  // First MPDU sits right after the channel estimate; last near frame end.
  EXPECT_LT(plan.mpdu_age_fraction(0), 0.1);
  EXPECT_GT(plan.mpdu_age_fraction(plan.n_mpdus - 1), 0.9);
}

TEST(AmpduPlanTest, SingleMpduAgeIsMidpoint) {
  AmpduPlan plan;
  plan.n_mpdus = 1;
  EXPECT_DOUBLE_EQ(plan.mpdu_age_fraction(0), 0.5);
}

TEST(AmpduPlanTest, ZeroMpdusSafe) {
  AmpduPlan plan;
  plan.n_mpdus = 0;
  EXPECT_DOUBLE_EQ(plan.mpdu_age_fraction(0), 0.0);
}

/// The SoftPHY BER chain the frame simulators ran per MPDU before the
/// kernel. coded_ber is now 2*b*b, so this restates its former clamp
/// min(raw_ber, 2*b*b) around it.
double reference_ber(const McsEntry& e, double snr_db, double decorrelation,
                     const ErrorModelConfig& config) {
  const double stream_snr =
      per_stream_snr_db(e, aged_snr_db(snr_db, decorrelation), config);
  return std::min(raw_ber(e.modulation, stream_snr),
                  coded_ber(e.modulation, e.code_rate, stream_snr));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(AmpduErrorsTest, BitwiseEqualToPerMpduChain) {
  // The kernel must reproduce the per-MPDU per_with_aging / SoftPHY BER
  // chain exactly: flat frames (decorr_end <= 0, incl. -0.0 and rounding
  // negatives), fresh-ish, aged and clamped (>= 1) frames.
  const ErrorModelConfig config;
  const int payload = 1500;
  const double decorrs[] = {-1e-16, -0.0, 0.0, 1e-9, 0.01, 0.3,
                            1.0 - 1e-10, 1.0, 1.5};
  MpduErrors out;
  long mismatches = 0;
  std::string first;
  for (const McsEntry& e : mcs_table()) {
    for (int step = 0; step <= 280; ++step) {
      const double snr = -10.0 + 0.25 * step;
      for (double decorr_end : decorrs) {
        for (int n : {1, 2, 17, 45, 64}) {
          ampdu_mpdu_errors(e, snr, decorr_end, n, payload, config, out);
          const AmpduPlan plan{n, 0.0};
          for (int i = 0; i < n; ++i) {
            const double d = decorr_end * plan.mpdu_age_fraction(i);
            const auto k = static_cast<std::size_t>(i);
            const double per = per_with_aging(e, snr, payload, d, config);
            const double ber = reference_ber(e, snr, d, config);
            if (same_bits(out.per[k], per) && same_bits(out.ber[k], ber))
              continue;
            if (mismatches++ == 0)
              first = "mcs " + std::to_string(e.index) + " snr " +
                      std::to_string(snr) + " decorr_end " +
                      std::to_string(decorr_end) + " n " + std::to_string(n) +
                      " i " + std::to_string(i);
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

TEST(AmpduErrorsTest, RejectsMpduCountOutsideBlockAckWindow) {
  MpduErrors out;
  EXPECT_THROW(ampdu_mpdu_errors(mcs(0), 20.0, 0.1, 0, 1500, {}, out),
               std::out_of_range);
  EXPECT_THROW(ampdu_mpdu_errors(mcs(0), 20.0, 0.1, kMaxAmpduMpdus + 1, 1500,
                                 {}, out),
               std::out_of_range);
}

}  // namespace
}  // namespace mobiwlan
