// Tests for A-MPDU planning and the adaptive aggregation policy (§5).
#include "mac/aggregation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

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
  Rng rng(1);
  const PerGrid& grid = PerGrid::shared(1500, {});
  for (int n : {0, kMaxAmpduMpdus + 1}) {
    EXPECT_THROW(ampdu_mpdu_errors(mcs(0), 20.0, 0.1, n, 1500, {}, out),
                 std::out_of_range);
    EXPECT_THROW(ampdu_mpdu_losses(mcs(0), 20.0, 0.1, n, grid, rng),
                 std::out_of_range);
    EXPECT_THROW(ampdu_mpdu_losses(mcs(0), 20.0, 0.1, n, grid, rng, &out),
                 std::out_of_range);
  }
}

/// The loss-kernel grid: BitwiseEqualToPerMpduChain's MCS and SNR sweep and
/// decorrelations, plus SNRs off the PER grid's [-20, 60] dB and NaN, a
/// NaN decorrelation, small decorrelations whose aged SINR crosses a few
/// grid cells over the frame, and more frame sizes.
template <typename Visit>
void for_each_loss_case(Visit visit) {
  const double decorrs[] = {-1e-16, -0.0,        0.0, 1e-9, 1e-4, 5e-4, 0.01,
                            0.3,    1.0 - 1e-10, 1.0, 1.5,  std::nan("")};
  std::vector<double> snrs;
  for (int step = 0; step <= 280; ++step) snrs.push_back(-10.0 + 0.25 * step);
  for (const double snr : {-60.0, -20.5, 60.5, 90.0, std::nan("")})
    snrs.push_back(snr);
  for (const McsEntry& e : mcs_table())
    for (const double snr : snrs)
      for (double decorr_end : decorrs)
        for (int n : {1, 2, 3, 17, 45, 63, 64}) visit(e, snr, decorr_end, n);
}

/// The PER grid cell holding a finite aged SINR (clamped to the grid's
/// ends).
int grid_cell(double sinr_db) {
  const double k =
      std::floor((sinr_db - PerGrid::kLoDb) * PerGrid::kPointsPerDb);
  return static_cast<int>(std::clamp(k, -1.0, double{PerGrid::kPoints}));
}

std::string loss_case(const McsEntry& e, double snr, double decorr_end,
                      int n) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "mcs %d snr %.2f decorr_end %.17g n %d",
                e.index, snr, decorr_end, n);
  return buf;
}

TEST(AmpduLossesTest, DecisionsEqualPerMpduDraws) {
  // The loss mask must be bit for bit the outcomes of chance(per[i]) over
  // ampdu_mpdu_errors, and leave the generator where that loop does, on
  // both the bracket path and the SoftPHY path that prices every MPDU,
  // under the default payload and error model, a short payload and a
  // harsher error model, each decided against its own shared grid.
  struct Model {
    int payload;
    ErrorModelConfig config;
  };
  const Model models[] = {{1500, {}}, {300, {}}, {1500, {4.0, 2.0}}};
  MpduErrors want_errors, priced;
  Rng seeds(20141104);
  long mismatches = 0, multi_cell_frames = 0;
  std::string first;
  for (const Model& m : models) {
    const PerGrid& grid = PerGrid::shared(m.payload, m.config);
    for_each_loss_case([&](const McsEntry& e, double snr, double decorr_end,
                           int n) {
      ampdu_mpdu_errors(e, snr, decorr_end, n, m.payload, m.config,
                        want_errors);
      if (n > 1 && decorr_end > 0.0 && !std::isnan(snr)) {
        const AmpduPlan plan{n, 0.0};
        const auto cell = [&](int i) {
          return grid_cell(
              aged_snr_db(snr, decorr_end * plan.mpdu_age_fraction(i)));
        };
        const int cells = cell(0) - cell(n - 1);
        if (cells >= 3 && cells <= 32) ++multi_cell_frames;
      }
      for (int s = 0; s < 4; ++s) {
        Rng rng(seeds.next_u64());
        Rng ref = rng;
        std::uint64_t want = 0;
        for (int i = 0; i < n; ++i)
          if (ref.chance(want_errors.per[static_cast<std::size_t>(i)]))
            want |= std::uint64_t{1} << i;
        const bool softphy = s == 0;
        const std::uint64_t got = ampdu_mpdu_losses(
            e, snr, decorr_end, n, grid, rng, softphy ? &priced : nullptr);
        bool same = got == want && rng.next_u64() == ref.next_u64();
        for (int i = 0; softphy && i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          same = same && same_bits(priced.per[k], want_errors.per[k]) &&
                 same_bits(priced.ber[k], want_errors.ber[k]);
        }
        if (!same && mismatches++ == 0)
          first = loss_case(e, snr, decorr_end, n) + " payload " +
                  std::to_string(m.payload) + " draw " + std::to_string(s);
      }
    });
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
  // Frames whose aged SINR crosses 3-32 grid cells from MPDU 0 to n-1.
  EXPECT_GT(multi_cell_frames, 1000);
}

TEST(AmpduLossesTest, PerNonDecreasingWithinBracketMargin) {
  // The bracket rule rests on per[i] >= per[a] - margin(per[a]) for every
  // a < i (and the mirror image for the upper bracket): the largest
  // backward step of the exact per[i] below the running maximum must stay
  // under 1/1000 of the margin at per[i]. NaN prices decide nothing.
  const ErrorModelConfig config;
  MpduErrors out;
  double worst = 0.0;
  long steps = 0;
  std::string where = "none";
  for_each_loss_case([&](const McsEntry& e, double snr, double decorr_end,
                         int n) {
    ampdu_mpdu_errors(e, snr, decorr_end, n, 1500, config, out);
    double running_max = out.per[0];
    for (int i = 1; i < n; ++i) {
      const double p = out.per[static_cast<std::size_t>(i)];
      if (std::isnan(p) || std::isnan(running_max)) continue;
      ++steps;
      const double step = (running_max - p) / ampdu_bracket_margin(p);
      if (step > worst) {
        worst = step;
        where = loss_case(e, snr, decorr_end, n) + " i " + std::to_string(i);
      }
      running_max = std::max(running_max, p);
    }
  });
  EXPECT_GT(steps, 0);
  EXPECT_LT(worst, 1e-3) << "worst backward step at " << where;
}

}  // namespace
}  // namespace mobiwlan
