// Tests for the up-front config check of the frame simulators
// (simulate_link, simulate_latency, simulate_overall), the roaming control
// loop (simulate_roaming), the beamforming emulators
// (simulate_su_beamforming, simulate_mu_mimo) and the classifier trial loop
// (runtime::run_classifier): one test per FrameSimConfigError code, each
// across every loop the field reaches.
#include "mac/frame_sim_config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "mac/atheros_ra.hpp"
#include "mac/latency_sim.hpp"
#include "mac/link_sim.hpp"
#include "net/roaming.hpp"
#include "runtime/classifier_driver.hpp"
#include "sim/beamforming_sim.hpp"
#include "sim/overall_sim.hpp"

namespace mobiwlan {
namespace {

using Code = FrameSimConfigError::Code;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void expect_code(const std::function<void()>& run, Code code) {
  try {
    run();
    ADD_FAILURE() << "config was accepted; expected FrameSimConfigError";
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

/// Runs simulate_roaming under `scheme` on a short corridor walk after
/// `edit` changes the default config.
void run_roam(RoamingScheme scheme,
              const std::function<void(RoamingConfig&)>& edit) {
  Rng rng(10);
  auto traj = WlanDeployment::corridor_walk(rng);
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, ChannelConfig{},
                      rng);
  RoamingConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  simulate_roaming(wlan, scheme, cfg);
}

constexpr RoamingScheme kAware = RoamingScheme::kMotionAware;

void run_su(const std::function<void(BeamformingSimConfig&)>& edit) {
  Rng rng(7);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  BeamformingSimConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  simulate_su_beamforming(s, cfg);
}

void run_mu(const std::function<void(BeamformingSimConfig&)>& edit) {
  Rng rng(8);
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg;
  cfg.duration_s = 0.2;
  edit(cfg);
  simulate_mu_mimo({&a, &b}, cfg);
}

/// Runs the classifier trial loop for `duration_s` on a static link after
/// `edit` changes the default classifier config.
void run_trial(double duration_s,
               const std::function<void(MobilityClassifier::Config&)>& edit) {
  Rng rng(9);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  trace::LiveChannelSource live(*s.channel);
  MobilityClassifier::Config cfg;
  edit(cfg);
  runtime::run_classifier(live, 0, duration_s, 0.0,
                          [](double, const MobilityClassifier&) {}, cfg);
}

TEST(FrameSimConfigTest, DefaultsRunInEverySimulator) {
  EXPECT_NO_THROW(run_link([](LinkSimConfig&) {}));
  EXPECT_NO_THROW(run_latency([](LatencySimConfig&) {}));
  EXPECT_NO_THROW(run_overall([](OverallSimConfig&) {}));
  for (RoamingScheme scheme : {RoamingScheme::kDefault,
                               RoamingScheme::kSensorHint, kAware})
    EXPECT_NO_THROW(run_roam(scheme, [](RoamingConfig&) {}));
  EXPECT_NO_THROW(run_su([](BeamformingSimConfig&) {}));
  EXPECT_NO_THROW(run_mu([](BeamformingSimConfig&) {}));
  EXPECT_NO_THROW(run_trial(2.0, [](MobilityClassifier::Config&) {}));
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
    expect_code(
        [&] {
          run_roam(RoamingScheme::kDefault,
                   [&](RoamingConfig& c) { c.duration_s = d; });
        },
        Code::kBadDuration);
    expect_code(
        [&] { run_su([&](BeamformingSimConfig& c) { c.duration_s = d; }); },
        Code::kBadDuration);
    expect_code(
        [&] { run_mu([&](BeamformingSimConfig& c) { c.duration_s = d; }); },
        Code::kBadDuration);
    expect_code([&] { run_trial(d, [](MobilityClassifier::Config&) {}); },
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
  expect_code(
      [] {
        run_roam(RoamingScheme::kDefault,
                 [](RoamingConfig& c) { c.mpdu_payload_bytes = -2000; });
      },
      Code::kBadPayload);
  expect_code(
      [] {
        run_su([](BeamformingSimConfig& c) { c.mpdu_payload_bytes = -2000; });
      },
      Code::kBadPayload);
  expect_code(
      [] {
        run_mu([](BeamformingSimConfig& c) { c.mpdu_payload_bytes = -2000; });
      },
      Code::kBadPayload);
}

TEST(FrameSimConfigTest, EmptyPayloadRejectedWhereLossesAreDrawn) {
  // An empty MPDU is lost at no SNR and carries no bytes, and the loss
  // draws decide against a PER grid, which needs a payload of >= 1 byte.
  expect_code(
      [] { run_link([](LinkSimConfig& c) { c.mpdu_payload_bytes = 0; }); },
      Code::kBadPayload);
  expect_code(
      [] {
        run_latency([](LatencySimConfig& c) { c.mpdu_payload_bytes = 0; });
      },
      Code::kBadPayload);
  expect_code(
      [] {
        run_overall([](OverallSimConfig& c) { c.mpdu_payload_bytes = 0; });
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
    expect_code(
        [&] {
          run_roam(kAware,
                   [&](RoamingConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
    expect_code(
        [&] {
          run_su(
              [&](BeamformingSimConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
    expect_code(
        [&] {
          run_mu(
              [&](BeamformingSimConfig& c) { c.classifier.csi_period_s = p; });
        },
        Code::kBadCsiPeriod);
    expect_code(
        [&] {
          run_trial(2.0,
                    [&](MobilityClassifier::Config& c) { c.csi_period_s = p; });
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
  EXPECT_NO_THROW(run_roam(RoamingScheme::kSensorHint, [](RoamingConfig& c) {
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
    expect_code(
        [&] {
          run_roam(kAware,
                   [&](RoamingConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
    expect_code(
        [&] {
          run_su(
              [&](BeamformingSimConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
    expect_code(
        [&] {
          run_mu(
              [&](BeamformingSimConfig& c) { c.classifier.tof_period_s = p; });
        },
        Code::kBadTofPeriod);
    expect_code(
        [&] {
          run_trial(2.0,
                    [&](MobilityClassifier::Config& c) { c.tof_period_s = p; });
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
  EXPECT_NO_THROW(run_roam(RoamingScheme::kSensorHint, [](RoamingConfig& c) {
    c.classifier.tof_period_s = 0.0;
  }));
}

TEST(FrameSimConfigTest, BadSlotRejectedByBeamformingEmulators) {
  // 0, negative and NaN slots never advance time; +inf scores one slot.
  // Roaming's control-loop tick step_s is the same kind of fixed step.
  for (double slot : {0.0, -2e-3, kNaN, kInf}) {
    expect_code(
        [&] {
          run_roam(RoamingScheme::kDefault,
                   [&](RoamingConfig& c) { c.step_s = slot; });
        },
        Code::kBadSlot);
    expect_code(
        [&] { run_su([&](BeamformingSimConfig& c) { c.slot_s = slot; }); },
        Code::kBadSlot);
    expect_code(
        [&] { run_mu([&](BeamformingSimConfig& c) { c.slot_s = slot; }); },
        Code::kBadSlot);
  }
}

TEST(FrameSimConfigTest, BadOfferedLoadRejectedByLatencySim) {
  // Negative and NaN loads spin the arrival loop; +inf enqueues forever.
  for (double pps : {0.0, -100.0, kNaN, kInf}) {
    expect_code(
        [&] { run_latency([&](LatencySimConfig& c) { c.offered_pps = pps; }); },
        Code::kBadOfferedLoad);
  }
}

TEST(FrameSimConfigTest, BadInterferenceRejectedByLinkSim) {
  // A NaN or negative rate used to run with no bursts at all; +inf
  // jams the whole run.
  for (double rate : {kNaN, -0.4, kInf}) {
    expect_code(
        [&] {
          run_link(
              [&](LinkSimConfig& c) { c.interference_burst_rate_hz = rate; });
        },
        Code::kBadInterference);
  }
  // At a rate > 0 the burst bounds must be finite with 0 <= min <= max.
  // (Negative lengths at a high rate spin the burst catch-up loop forever;
  // these bounds fail the same check and end at any version.)
  const double bounds[][2] = {{-1e-3, 1e-3}, {2e-2, 1e-2}, {kNaN, 25e-3},
                              {5e-3, kNaN},  {5e-3, kInf}, {-kInf, 25e-3}};
  for (const auto& b : bounds) {
    expect_code(
        [&] {
          run_link([&](LinkSimConfig& c) {
            c.interference_burst_min_s = b[0];
            c.interference_burst_max_s = b[1];
          });
        },
        Code::kBadInterference);
  }
  // Zero-length bursts are bursts; at rate 0 the bounds are never read.
  EXPECT_NO_THROW(run_link([](LinkSimConfig& c) {
    c.interference_burst_rate_hz = 100.0;
    c.interference_burst_min_s = c.interference_burst_max_s = 0.0;
  }));
  EXPECT_NO_THROW(run_link([](LinkSimConfig& c) {
    c.interference_burst_rate_hz = 0.0;
    c.interference_burst_min_s = c.interference_burst_max_s = -1.0;
  }));
}

TEST(FrameSimConfigTest, BadTcpStallRejectedByLinkSim) {
  // A negative stall runs time backwards; NaN and +inf end the run at the
  // first stall.
  for (double stall : {-1e-3, kNaN, kInf}) {
    expect_code(
        [&] { run_link([&](LinkSimConfig& c) { c.tcp_stall_s = stall; }); },
        Code::kBadTcpStall);
  }
  EXPECT_NO_THROW(run_link([](LinkSimConfig& c) { c.tcp_stall_s = 0.025; }));
}

}  // namespace
}  // namespace mobiwlan
