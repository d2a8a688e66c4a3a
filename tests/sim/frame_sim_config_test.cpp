// Tests for the up-front config check of the three frame simulators
// (simulate_link, simulate_latency, simulate_overall): one test per
// FrameSimConfigError code, each across every simulator the field reaches.
#include "mac/frame_sim_config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "mac/atheros_ra.hpp"
#include "mac/latency_sim.hpp"
#include "mac/link_sim.hpp"
#include "sim/overall_sim.hpp"

namespace mobiwlan {
namespace {

using Code = FrameSimConfigError::Code;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void expect_code(const std::function<void()>& run, Code code) {
  try {
    run();
    ADD_FAILURE() << "config accepted; expected FrameSimConfigError";
  } catch (const FrameSimConfigError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

/// Runs simulate_link on a short static link after `edit` changes the
/// default config.
void run_link(const std::function<void(LinkSimConfig&)>& edit) {
  Rng rng(1);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  AtherosRa ra;
  LinkSimConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  Rng sim_rng(2);
  simulate_link(s, ra, cfg, sim_rng);
}

void run_latency(const std::function<void(LatencySimConfig&)>& edit) {
  Rng rng(3);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  AtherosRa ra;
  LatencySimConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  Rng sim_rng(4);
  simulate_latency(s, ra, cfg, sim_rng);
}

void run_overall(const std::function<void(OverallSimConfig&)>& edit) {
  Rng rng(5);
  auto traj = WlanDeployment::corridor_walk(rng);
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, ChannelConfig{},
                      rng);
  OverallSimConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  Rng sim_rng(6);
  simulate_overall(wlan, cfg, sim_rng);
}

TEST(FrameSimConfigTest, DefaultsRunInEverySimulator) {
  EXPECT_NO_THROW(run_link([](LinkSimConfig&) {}));
  EXPECT_NO_THROW(run_latency([](LatencySimConfig&) {}));
  EXPECT_NO_THROW(run_overall([](OverallSimConfig&) {}));
}

TEST(FrameSimConfigTest, BadDurationRejected) {
  // +inf never ends; 0, negative and NaN leave goodput undefined.
  for (double d : {kInf, 0.0, -1.0, kNaN}) {
    expect_code([&] { run_link([&](LinkSimConfig& c) { c.duration_s = d; }); },
                Code::kBadDuration);
    expect_code(
        [&] { run_latency([&](LatencySimConfig& c) { c.duration_s = d; }); },
        Code::kBadDuration);
    expect_code(
        [&] { run_overall([&](OverallSimConfig& c) { c.duration_s = d; }); },
        Code::kBadDuration);
  }
}

TEST(FrameSimConfigTest, NegativePayloadRejected) {
  expect_code(
      [] { run_link([](LinkSimConfig& c) { c.mpdu_payload_bytes = -2000; }); },
      Code::kBadPayload);
  expect_code(
      [] {
        run_latency([](LatencySimConfig& c) { c.mpdu_payload_bytes = -2000; });
      },
      Code::kBadPayload);
  expect_code(
      [] {
        run_overall([](OverallSimConfig& c) { c.mpdu_payload_bytes = -2000; });
      },
      Code::kBadPayload);
}

TEST(FrameSimConfigTest, BadCsiPeriodRejectedWhenClassifierRuns) {
  for (double p : {0.0, -0.5, kNaN, kInf}) {
    expect_code(
        [&] {
          run_link([&](LinkSimConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
    expect_code(
        [&] {
          run_latency(
              [&](LatencySimConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
    expect_code(
        [&] {
          run_overall(
              [&](OverallSimConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
  }
  // With the classifier off its cadences are never read.
  EXPECT_NO_THROW(run_link([](LinkSimConfig& c) {
    c.run_classifier = false;
    c.classifier.csi_period_s = 0.0;
  }));
  EXPECT_NO_THROW(run_latency([](LatencySimConfig& c) {
    c.run_classifier = false;
    c.classifier.csi_period_s = 0.0;
  }));
  EXPECT_NO_THROW(run_overall([](OverallSimConfig& c) {
    c.mobility_aware = false;
    c.classifier.csi_period_s = 0.0;
  }));
}

TEST(FrameSimConfigTest, BadTofPeriodRejectedWhenClassifierRuns) {
  for (double p : {0.0, -0.02, kNaN, kInf}) {
    expect_code(
        [&] {
          run_link([&](LinkSimConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
    expect_code(
        [&] {
          run_latency(
              [&](LatencySimConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
    expect_code(
        [&] {
          run_overall(
              [&](OverallSimConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
  }
  EXPECT_NO_THROW(run_link([](LinkSimConfig& c) {
    c.run_classifier = false;
    c.classifier.tof_period_s = 0.0;
  }));
  EXPECT_NO_THROW(run_latency([](LatencySimConfig& c) {
    c.run_classifier = false;
    c.classifier.tof_period_s = 0.0;
  }));
  EXPECT_NO_THROW(run_overall([](OverallSimConfig& c) {
    c.mobility_aware = false;
    c.classifier.tof_period_s = 0.0;
  }));
}

TEST(FrameSimConfigTest, BadOfferedLoadRejectedByLatencySim) {
  // Negative and NaN loads spin the arrival loop; +inf enqueues forever.
  for (double pps : {0.0, -100.0, kNaN, kInf}) {
    expect_code(
        [&] { run_latency([&](LatencySimConfig& c) { c.offered_pps = pps; }); },
        Code::kBadOfferedLoad);
  }
}

}  // namespace
}  // namespace mobiwlan
