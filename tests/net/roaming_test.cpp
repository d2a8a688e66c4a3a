// Tests for the three roaming schemes (§3).
#include "net/roaming.hpp"

#include <limits>

#include <gtest/gtest.h>

#include "mac/frame_sim_config.hpp"

namespace mobiwlan {
namespace {

WlanDeployment walking_deployment(std::uint64_t seed, Rng& rng) {
  Rng seeded(seed);
  rng = seeded;
  auto traj = WlanDeployment::corridor_walk(rng);
  return WlanDeployment(WlanDeployment::corridor_layout(), traj, ChannelConfig{},
                        rng);
}

RoamingConfig short_config() {
  RoamingConfig cfg;
  cfg.duration_s = 40.0;
  return cfg;
}

TEST(RoamingTest, AllSchemesProduceThroughput) {
  for (auto scheme : {RoamingScheme::kDefault, RoamingScheme::kSensorHint,
                      RoamingScheme::kMotionAware}) {
    Rng rng(0);
    WlanDeployment wlan = walking_deployment(1, rng);
    const RoamingResult r = simulate_roaming(wlan, scheme, short_config());
    EXPECT_GT(r.mean_throughput_mbps, 5.0) << to_string(scheme);
    EXPECT_FALSE(r.associations.empty());
  }
}

TEST(RoamingTest, StaticClientNeverRoams) {
  // §3.1 intuition 1: no roaming pressure without motion.
  Rng rng(3);
  auto traj = std::make_shared<StaticTrajectory>(Vec2{20.0, 2.0});
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, ChannelConfig{}, rng);
  for (auto scheme : {RoamingScheme::kDefault, RoamingScheme::kMotionAware}) {
    const RoamingResult r = simulate_roaming(wlan, scheme, short_config());
    EXPECT_EQ(r.handoffs, 0) << to_string(scheme);
  }
}

TEST(RoamingTest, WalkingClientEventuallyRoams) {
  Rng rng(0);
  WlanDeployment wlan = walking_deployment(5, rng);
  RoamingConfig cfg = short_config();
  cfg.duration_s = 90.0;
  const RoamingResult r =
      simulate_roaming(wlan, RoamingScheme::kMotionAware, cfg);
  EXPECT_GT(r.handoffs, 0);
}

TEST(RoamingTest, HandoffsCostOutage) {
  Rng rng(0);
  WlanDeployment wlan = walking_deployment(7, rng);
  RoamingConfig cfg = short_config();
  cfg.duration_s = 90.0;
  const RoamingResult r =
      simulate_roaming(wlan, RoamingScheme::kDefault, cfg);
  EXPECT_NEAR(r.outage_s, r.handoffs * cfg.handoff_outage_s, 1e-9);
}

TEST(RoamingTest, SensorHintScansCostOutageEvenWithoutHandoff) {
  Rng rng(0);
  WlanDeployment wlan = walking_deployment(9, rng);
  const RoamingResult r =
      simulate_roaming(wlan, RoamingScheme::kSensorHint, short_config());
  EXPECT_GT(r.outage_s, r.handoffs * short_config().handoff_outage_s - 1e-9);
}

TEST(RoamingTest, ScanTriggeredHandoffOutageIsExtendOnly) {
  // Regression: the periodic sensor-hint scan used to add scan_cost_s to
  // outage_s and then an immediate handoff added handoff_outage_s on top
  // while *overwriting* the enforcement window — reported outage exceeded
  // (or with a short handoff, the enforced window undercut) the realized
  // dead air. With handoff_outage_s < scan_cost_s the realized window per
  // scan-triggered handoff is exactly the scan cost, so outage_s must be
  // scans * scan_cost_s — the old code reported extra handoff outage on top.
  Rng rng(0);
  WlanDeployment wlan = walking_deployment(9, rng);
  RoamingConfig cfg = short_config();
  cfg.duration_s = 90.0;
  cfg.rssi_threshold_dbm = -200.0;  // no threshold-triggered handoffs
  cfg.handoff_outage_s = 0.05;      // shorter than the 0.12 s scan window
  const RoamingResult r =
      simulate_roaming(wlan, RoamingScheme::kSensorHint, cfg);
  ASSERT_GT(r.scans, 0);
  ASSERT_GT(r.handoffs, 0);  // the walk must actually trigger steered scans
  EXPECT_NEAR(r.outage_s, r.scans * cfg.scan_cost_s, 1e-9);
}

TEST(RoamingTest, MotionAwareBeatsDefaultOnMedianWalk) {
  // The headline §3.2 comparison, on a small sample.
  double aware_total = 0.0;
  double default_total = 0.0;
  for (int i = 0; i < 5; ++i) {
    for (int scheme = 0; scheme < 2; ++scheme) {
      Rng rng(0);
      WlanDeployment wlan = walking_deployment(50 + i, rng);
      const RoamingResult r = simulate_roaming(
          wlan, scheme == 0 ? RoamingScheme::kDefault : RoamingScheme::kMotionAware,
          short_config());
      (scheme == 0 ? default_total : aware_total) += r.mean_throughput_mbps;
    }
  }
  EXPECT_GT(aware_total, default_total);
}

TEST(RoamingTest, AssociationsTimeOrdered) {
  Rng rng(0);
  WlanDeployment wlan = walking_deployment(11, rng);
  RoamingConfig cfg = short_config();
  cfg.duration_s = 90.0;
  const RoamingResult r =
      simulate_roaming(wlan, RoamingScheme::kMotionAware, cfg);
  for (std::size_t i = 1; i < r.associations.size(); ++i) {
    EXPECT_GE(r.associations[i].first, r.associations[i - 1].first);
    EXPECT_NE(r.associations[i].second, r.associations[i - 1].second);
  }
}

TEST(OracleVsStickTest, OracleAtLeastAsGood) {
  for (int i = 0; i < 5; ++i) {
    Rng rng(0);
    WlanDeployment wlan = walking_deployment(70 + i, rng);
    const auto [oracle, stick] = oracle_vs_stick(wlan, short_config());
    EXPECT_GE(oracle, stick - 1e-9);
  }
}

TEST(OracleVsStickTest, StaticClientGainsNothing) {
  // §3.1 / Fig. 7a: for a static client the two are nearly identical.
  Rng rng(13);
  auto traj = std::make_shared<StaticTrajectory>(Vec2{15.0, 2.0});
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, ChannelConfig{}, rng);
  RoamingConfig cfg = short_config();
  cfg.duration_s = 20.0;
  const auto [oracle, stick] = oracle_vs_stick(wlan, cfg);
  EXPECT_LT(oracle / std::max(stick, 1.0) - 1.0, 0.05);
}

TEST(OracleVsStickTest, WalkingClientGains) {
  double gain_sum = 0.0;
  for (int i = 0; i < 5; ++i) {
    Rng rng(0);
    WlanDeployment wlan = walking_deployment(90 + i, rng);
    RoamingConfig cfg = short_config();
    cfg.duration_s = 60.0;
    const auto [oracle, stick] = oracle_vs_stick(wlan, cfg);
    gain_sum += oracle / std::max(stick, 1.0) - 1.0;
  }
  EXPECT_GT(gain_sum / 5.0, 0.05);
}

// oracle_vs_stick steps `for (t = 0; t < duration_s; t += step_s)`, so a
// zero, negative or NaN step would never end and a NaN duration would
// silently average nothing: each is refused up front with
// simulate_roaming's typed error.
TEST(OracleVsStickTest, RejectsBadStepAndDuration) {
  using Code = FrameSimConfigError::Code;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto expect_code = [](const RoamingConfig& cfg, Code code) {
    Rng rng(0);
    WlanDeployment wlan = walking_deployment(70, rng);
    try {
      oracle_vs_stick(wlan, cfg);
      ADD_FAILURE() << "config accepted; expected FrameSimConfigError";
    } catch (const FrameSimConfigError& e) {
      EXPECT_EQ(e.code(), code) << e.what();
    }
  };
  for (const double step : {0.0, -1.0, kNaN}) {
    RoamingConfig cfg = short_config();
    cfg.step_s = step;
    SCOPED_TRACE(step);
    expect_code(cfg, Code::kBadSlot);
  }
  RoamingConfig cfg = short_config();
  cfg.duration_s = kNaN;
  expect_code(cfg, Code::kBadDuration);
}

}  // namespace
}  // namespace mobiwlan
