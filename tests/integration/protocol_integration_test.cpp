// Integration: reduced-scale versions of the protocol comparisons the bench
// binaries run at full scale (§4-§6). Each asserts the *direction* of the
// paper's result on a handful of seeds.
#include <gtest/gtest.h>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/esnr_ra.hpp"
#include "mac/link_sim.hpp"
#include "sim/beamforming_sim.hpp"
#include "util/stats.hpp"

namespace mobiwlan {
namespace {

double run_link(MobilityClass cls, bool aware, std::uint64_t seed,
                const LinkSimConfig& base) {
  Rng rng(seed);
  Scenario s = make_scenario(cls, rng);
  Rng frame_rng(seed + 5000);
  if (aware) {
    AtherosRa ra = make_mobility_aware_atheros_ra();
    return simulate_link(s, ra, base, frame_rng).goodput_mbps;
  }
  AtherosRa ra;
  return simulate_link(s, ra, base, frame_rng).goodput_mbps;
}

TEST(RateAdaptationIntegration, MobilityHintsHelpDeviceMobility) {
  // §4.3 direction: motion-aware Atheros RA > stock on walking links (TCP).
  LinkSimConfig cfg;
  cfg.duration_s = 10.0;
  cfg.tcp_stall_s = 0.025;
  double aware = 0.0;
  double stock = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    aware += run_link(MobilityClass::kMacro, true, 100 + seed, cfg);
    stock += run_link(MobilityClass::kMacro, false, 100 + seed, cfg);
  }
  EXPECT_GT(aware, stock * 1.02);
}

TEST(RateAdaptationIntegration, HintsHarmlessWhenStatic) {
  // Static links: the mobility-aware variant must not be (much) worse.
  LinkSimConfig cfg;
  cfg.duration_s = 8.0;
  double aware = 0.0;
  double stock = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    aware += run_link(MobilityClass::kStatic, true, 300 + seed, cfg);
    stock += run_link(MobilityClass::kStatic, false, 300 + seed, cfg);
  }
  EXPECT_GT(aware, stock * 0.9);
}

TEST(RateAdaptationIntegration, EsnrUpperBoundsFrameBasedSchemes) {
  // §4.3: ESNR is the ceiling among the compared schemes.
  LinkSimConfig phy_cfg;
  phy_cfg.duration_s = 8.0;
  phy_cfg.provide_phy_feedback = true;
  LinkSimConfig frame_cfg;
  frame_cfg.duration_s = 8.0;

  double esnr_total = 0.0;
  double stock_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    {
      Rng rng(400 + seed);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      EsnrRa ra;
      Rng frame_rng(5400 + seed);
      esnr_total += simulate_link(s, ra, phy_cfg, frame_rng).goodput_mbps;
    }
    {
      Rng rng(400 + seed);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      AtherosRa ra;
      Rng frame_rng(5400 + seed);
      stock_total += simulate_link(s, ra, frame_cfg, frame_rng).goodput_mbps;
    }
  }
  EXPECT_GT(esnr_total, stock_total);
}

TEST(AggregationIntegration, OptimalLimitShrinksWithMobility) {
  // Fig. 10(a) direction: static prefers 8 ms over 2 ms; macro the reverse.
  auto mean_tput = [](MobilityClass cls, double limit) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(500 + seed);
      Scenario s = make_scenario(cls, rng);
      AtherosRa ra;
      LinkSimConfig cfg;
      cfg.duration_s = 6.0;
      cfg.aggregation.fixed_limit_s = limit;
      cfg.interference_burst_rate_hz = 0.0;
      Rng frame_rng(600 + seed);
      total += simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
    }
    return total;
  };
  EXPECT_GT(mean_tput(MobilityClass::kStatic, 8e-3),
            mean_tput(MobilityClass::kStatic, 2e-3));
  EXPECT_GT(mean_tput(MobilityClass::kMacro, 2e-3),
            mean_tput(MobilityClass::kMacro, 8e-3));
}

TEST(AggregationIntegration, AdaptiveTracksBestFixedChoice) {
  // The adaptive policy should be within a few percent of the better of the
  // two static configurations on macro links.
  auto run = [](bool adaptive, double fixed) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(700 + seed);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      AtherosRa ra;
      LinkSimConfig cfg;
      cfg.duration_s = 6.0;
      cfg.aggregation.adaptive = adaptive;
      cfg.aggregation.fixed_limit_s = fixed;
      Rng frame_rng(800 + seed);
      total += simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
    }
    return total;
  };
  const double adaptive = run(true, 4e-3);
  const double fixed8 = run(false, 8e-3);
  EXPECT_GT(adaptive, fixed8);
}

TEST(BeamformingIntegration, AdaptiveFeedbackBeatsDefaultOnMacro) {
  // Fig. 11(b) direction, macro links only (where the default 20 ms period
  // is most wrong in both directions across modes).
  auto run = [](bool adaptive) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(900 + seed);
      Scenario s = make_scenario(MobilityClass::kStatic, rng);
      BeamformingSimConfig cfg;
      cfg.duration_s = 5.0;
      cfg.adaptive_period = adaptive;
      total += simulate_su_beamforming(s, cfg).throughput_mbps;
    }
    return total;
  };
  // For static clients, adapting to 200 ms removes the default's overhead.
  EXPECT_GT(run(true), run(false));
}

}  // namespace
}  // namespace mobiwlan
