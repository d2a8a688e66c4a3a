// Tests for the ground-truth read every protocol emulator shares: a source
// that stops serving the emulator's own ground truth (true CSI or SNR) mid
// run must stop the loop with TraceError::kMissingStream and a message
// naming the loop and the read, never let it run on without the medium.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/latency_sim.hpp"
#include "mac/link_sim.hpp"
#include "net/deployment_source.hpp"
#include "net/roaming.hpp"
#include "sim/overall_sim.hpp"
#include "trace/source.hpp"

namespace mobiwlan {
namespace {

using trace::StreamKind;

/// Serves every stream from `inner`, but stops serving `starved` (kTrueCsi
/// or kSnr) after `budget` reads of it. has() still claims every stream, so
/// the loops' up-front require() passes and the gap shows mid run.
class StarvingSource : public trace::ObservableSource {
 public:
  StarvingSource(trace::ObservableSource& inner, StreamKind starved,
                 int budget)
      : inner_(inner), starved_(starved), budget_(budget) {}

  std::size_t n_units() const override { return inner_.n_units(); }
  bool has(StreamKind) const override { return true; }

  bool csi(std::uint32_t u, double t, CsiMatrix& out) override {
    return inner_.csi(u, t, out);
  }
  bool csi_feedback(std::uint32_t u, double t, CsiMatrix& out) override {
    return inner_.csi_feedback(u, t, out);
  }
  bool csi_true(std::uint32_t u, double t, CsiMatrix& out) override {
    return serve(StreamKind::kTrueCsi) && inner_.csi_true(u, t, out);
  }
  std::optional<double> rssi_dbm(std::uint32_t u, double t) override {
    return inner_.rssi_dbm(u, t);
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double t) override {
    return inner_.scan_rssi_dbm(u, t);
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    return inner_.tof_cycles(u, t);
  }
  std::optional<double> snr_db(std::uint32_t u, double t) override {
    if (!serve(StreamKind::kSnr)) return std::nullopt;
    return inner_.snr_db(u, t);
  }
  std::optional<double> true_distance(std::uint32_t u, double t) override {
    return inner_.true_distance(u, t);
  }

 private:
  bool serve(StreamKind kind) {
    if (kind != starved_) return true;
    return budget_-- > 0;
  }

  trace::ObservableSource& inner_;
  StreamKind starved_;
  int budget_;
};

/// Runs `loop` and expects it to throw kMissingStream with exactly `what`.
void expect_missing(const std::function<void()>& loop,
                    const std::string& what) {
  try {
    loop();
    ADD_FAILURE() << "loop ran to completion; expected: " << what;
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.code(), trace::TraceError::Code::kMissingStream) << e.what();
    EXPECT_EQ(std::string(e.what()), what);
  }
}

/// One static link starved of `kind` after `budget` reads, through either
/// single-link loop.
void starve_link(StreamKind kind, int budget, const std::string& what) {
  Rng rng(1);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  trace::LiveChannelSource live(*s.channel);
  StarvingSource src(live, kind, budget);
  AtherosRa ra;
  LinkSimConfig cfg;
  cfg.duration_s = 2.0;
  Rng sim_rng(2);
  expect_missing([&] { simulate_link(src, ra, cfg, sim_rng); }, what);
}

void starve_latency(StreamKind kind, int budget, const std::string& what) {
  Rng rng(3);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  trace::LiveChannelSource live(*s.channel);
  StarvingSource src(live, kind, budget);
  AtherosRa ra;
  LatencySimConfig cfg;
  cfg.duration_s = 2.0;
  Rng sim_rng(4);
  expect_missing([&] { simulate_latency(src, ra, cfg, sim_rng); }, what);
}

WlanDeployment walking_deployment(std::uint64_t seed) {
  Rng rng(seed);
  auto traj = WlanDeployment::corridor_walk(rng);
  return WlanDeployment(WlanDeployment::corridor_layout(), traj,
                        ChannelConfig{}, rng);
}

void starve_overall(StreamKind kind, int budget, const std::string& what) {
  WlanDeployment wlan = walking_deployment(5);
  LiveDeploymentSource live(wlan);
  StarvingSource src(live, kind, budget);
  OverallSimConfig cfg;
  cfg.duration_s = 2.0;
  Rng sim_rng(6);
  expect_missing([&] { simulate_overall(src, cfg, sim_rng); }, what);
}

TEST(GroundTruthReadTest, LinkSimStopsWithoutTrueCsiOrSnr) {
  // Each frame reads true CSI at its start, SNR, then true CSI at its end.
  starve_link(StreamKind::kTrueCsi, 4,
              "link sim: ground-truth CSI unavailable from source: h_start");
  starve_link(StreamKind::kTrueCsi, 5,
              "link sim: ground-truth CSI unavailable from source: h_end");
  starve_link(StreamKind::kSnr, 3,
              "link sim: ground-truth observable unavailable from source: "
              "snr");
}

TEST(GroundTruthReadTest, LatencySimStopsWithoutTrueCsiOrSnr) {
  starve_latency(StreamKind::kTrueCsi, 4,
                 "latency sim: ground-truth CSI unavailable from source: "
                 "h_start");
  starve_latency(StreamKind::kTrueCsi, 5,
                 "latency sim: ground-truth CSI unavailable from source: "
                 "h_end");
  starve_latency(StreamKind::kSnr, 3,
                 "latency sim: ground-truth observable unavailable from "
                 "source: snr");
}

TEST(GroundTruthReadTest, OverallSimStopsWithoutTrueCsiOrSnr) {
  starve_overall(StreamKind::kTrueCsi, 4,
                 "overall sim: ground-truth CSI unavailable from source: "
                 "h_start");
  starve_overall(StreamKind::kTrueCsi, 5,
                 "overall sim: ground-truth CSI unavailable from source: "
                 "h_end");
  starve_overall(StreamKind::kSnr, 3,
                 "overall sim: ground-truth observable unavailable from "
                 "source: snr");
}

TEST(GroundTruthReadTest, RoamingSimStopsWithoutSnr) {
  // The roaming loop prices goodput from the serving SNR alone.
  for (RoamingScheme scheme : {RoamingScheme::kDefault,
                               RoamingScheme::kSensorHint,
                               RoamingScheme::kMotionAware}) {
    WlanDeployment wlan = walking_deployment(7);
    LiveDeploymentSource live(wlan);
    StarvingSource src(live, StreamKind::kSnr, 3);
    RoamingConfig cfg;
    cfg.duration_s = 2.0;
    expect_missing(
        [&] {
          simulate_roaming(src, scheme, cfg, wlan.client().mobility_class());
        },
        "roaming sim: ground-truth observable unavailable from source: "
        "serving snr");
  }
}

}  // namespace
}  // namespace mobiwlan
