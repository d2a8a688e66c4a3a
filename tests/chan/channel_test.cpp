// Tests for the geometric multipath channel — the testbed substitute.
// These verify the physical mechanisms the classifier relies on, not just
// API behaviour.
#include "chan/channel.hpp"

#include <gtest/gtest.h>

#include "core/csi_similarity.hpp"
#include "mac/observer.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mobiwlan {
namespace {

/// The aging FrameChannel measures from `start` to `end`:
/// 1 - |<start, end>| / (||start|| ||end||).
double frame_aging(const CsiMatrix& start, const CsiMatrix& end) {
  FrameChannel ch;
  ch.h_start = start;
  ch.h_end = end;
  ch.measure(20.0);
  return ch.decorr_end;
}

WirelessChannel make_static_channel(double distance_m, Rng& rng,
                                    ChannelConfig config = {}) {
  auto traj = std::make_shared<StaticTrajectory>(Vec2{distance_m, 0.0});
  return WirelessChannel(config, Vec2{0.0, 0.0}, traj, rng.split());
}

TEST(ChannelTest, CsiDimensionsMatchConfig) {
  Rng rng(1);
  auto ch = make_static_channel(10.0, rng);
  const CsiMatrix csi = ch.csi_at(0.0);
  EXPECT_EQ(csi.n_tx(), 3u);
  EXPECT_EQ(csi.n_rx(), 2u);
  EXPECT_EQ(csi.n_subcarriers(), kDefaultSubcarriers);
}

TEST(ChannelTest, SnrDecreasesWithDistance) {
  // Average over scatterer realizations: shadowing makes single draws noisy.
  Rng rng(2);
  double snr_near = 0.0;
  double snr_far = 0.0;
  for (int i = 0; i < 10; ++i) {
    snr_near += make_static_channel(8.0, rng).snr_db(0.0);
    snr_far += make_static_channel(30.0, rng).snr_db(0.0);
  }
  EXPECT_GT(snr_near / 10.0, snr_far / 10.0 + 8.0);
}

TEST(ChannelTest, TrueDistanceMatchesGeometry) {
  Rng rng(3);
  auto ch = make_static_channel(17.0, rng);
  EXPECT_DOUBLE_EQ(ch.true_distance(5.0), 17.0);
}

TEST(ChannelTest, RssiQuantized) {
  Rng rng(4);
  ChannelConfig cfg;
  auto ch = make_static_channel(12.0, rng, cfg);
  for (double t = 0.0; t < 1.0; t += 0.1) {
    const double rssi = ch.rssi_dbm(t);
    const double q = rssi / cfg.rssi_quantum_db;
    EXPECT_NEAR(q, std::round(q), 1e-9);
  }
}

TEST(ChannelTest, RssiTracksSnr) {
  Rng rng(5);
  auto ch = make_static_channel(15.0, rng);
  // RSSI - noise floor should be within a few dB of the reported SNR.
  const double noise_floor = kThermalNoiseDbmPerHz +
                             10.0 * std::log10(ch.config().bandwidth_hz) +
                             ch.config().noise_figure_db;
  EXPECT_NEAR(ch.rssi_dbm(0.0) - noise_floor, ch.snr_db(0.0), 3.0);
}

TEST(ChannelTest, StaticChannelIsStable) {
  // The core premise: nothing moves -> consecutive CSI is nearly identical.
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    auto ch = make_static_channel(10.0 + 4.0 * trial, rng);
    const CsiMatrix a = ch.csi_at(0.0);
    const CsiMatrix b = ch.csi_at(0.5);
    EXPECT_GT(csi_similarity(a, b), 0.97) << "trial " << trial;
  }
}

TEST(ChannelTest, DeviceMotionDecorrelates) {
  // A client displaced by several wavelengths has a different ripple pattern.
  Rng rng(7);
  auto traj = std::make_shared<LinearTrajectory>(Vec2{10.0, 0.0}, Vec2{0.0, 1.0}, 1.2);
  WirelessChannel ch(ChannelConfig{}, Vec2{0.0, 0.0}, traj, rng.split());
  const CsiMatrix a = ch.csi_at(0.0);
  const CsiMatrix b = ch.csi_at(0.5);  // moved 0.6 m ~ 11 wavelengths
  EXPECT_LT(csi_similarity(a, b), 0.7);
}

TEST(ChannelTest, EnvironmentalMotionPartiallyDecorrelates) {
  // People moving perturb only their own paths: similarity falls between the
  // static and device-mobility regimes.
  Rng rng(8);
  ChannelConfig cfg;
  cfg.activity = EnvironmentalActivity::kStrong;
  SampleSet sims;
  for (int trial = 0; trial < 8; ++trial) {
    auto ch = make_static_channel(12.0, rng, cfg);
    const CsiMatrix a = ch.csi_at(0.0);
    const CsiMatrix b = ch.csi_at(0.5);
    sims.add(csi_similarity(a, b));
  }
  EXPECT_GT(sims.median(), 0.3);
  EXPECT_LT(sims.median(), 0.99);
}

TEST(ChannelTest, WeakActivityMilderThanStrong) {
  Rng rng(9);
  ChannelConfig weak_cfg;
  weak_cfg.activity = EnvironmentalActivity::kWeak;
  ChannelConfig strong_cfg;
  strong_cfg.activity = EnvironmentalActivity::kStrong;
  double weak_sum = 0.0;
  double strong_sum = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    auto wch = make_static_channel(12.0, rng, weak_cfg);
    weak_sum += csi_similarity(wch.csi_at(0.0), wch.csi_at(0.5));
    auto sch = make_static_channel(12.0, rng, strong_cfg);
    strong_sum += csi_similarity(sch.csi_at(0.0), sch.csi_at(0.5));
  }
  EXPECT_GT(weak_sum / trials, strong_sum / trials);
}

TEST(ChannelTest, EnvironmentalBlockageRaisesRssiVariance) {
  // Fig. 1's mechanism: people crossing the LOS gate total power, so a
  // static client in a busy environment sees RSSI swings a quiet one never
  // does.
  Rng rng(30);
  ChannelConfig quiet;
  ChannelConfig busy;
  busy.activity = EnvironmentalActivity::kStrong;
  double quiet_std = 0.0;
  double busy_std = 0.0;
  const int trials = 8;
  for (int trial = 0; trial < trials; ++trial) {
    auto qch = make_static_channel(12.0, rng, quiet);
    auto bch = make_static_channel(12.0, rng, busy);
    std::vector<double> q;
    std::vector<double> b;
    for (double t = 0.0; t < 20.0; t += 0.1) {
      q.push_back(qch.rssi_dbm(t));
      b.push_back(bch.rssi_dbm(t));
    }
    quiet_std += stddev_of(q);
    busy_std += stddev_of(b);
  }
  EXPECT_GT(busy_std / trials, 2.0 * (quiet_std / trials));
}

TEST(ChannelTest, BlockagePulsesAreIntermittent) {
  // The LOS blockage is pulsed, not constant: power dips below the quiet
  // level periodically but recovers.
  Rng rng(31);
  ChannelConfig busy;
  busy.activity = EnvironmentalActivity::kStrong;
  auto ch = make_static_channel(12.0, rng, busy);
  SampleSet snr;
  for (double t = 0.0; t < 30.0; t += 0.1) snr.add(ch.snr_db(t));
  // A meaningful spread between the best and worst deciles.
  EXPECT_GT(snr.quantile(0.9) - snr.quantile(0.1), 2.0);
}

TEST(ChannelTest, TofTracksDistance) {
  Rng rng(10);
  ChannelConfig cfg;
  auto near = make_static_channel(5.0, rng, cfg);
  auto far = make_static_channel(30.0, rng, cfg);
  // Average many noisy readings; expected difference = 2*25m/c * clock.
  double near_sum = 0.0;
  double far_sum = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    near_sum += near.tof_cycles(i * 0.02);
    far_sum += far.tof_cycles(i * 0.02);
  }
  const double expected_delta =
      2.0 * 25.0 / kSpeedOfLight * cfg.tof_clock_hz;
  EXPECT_NEAR((far_sum - near_sum) / n, expected_delta, 1.0);
}

TEST(ChannelTest, TofIsIntegerCycles) {
  Rng rng(11);
  auto ch = make_static_channel(10.0, rng);
  for (int i = 0; i < 20; ++i) {
    const double v = ch.tof_cycles(i * 0.02);
    EXPECT_DOUBLE_EQ(v, std::round(v));
  }
}

TEST(ChannelTest, TofNoisyPerReading) {
  Rng rng(12);
  auto ch = make_static_channel(15.0, rng);
  OnlineStats s;
  for (int i = 0; i < 400; ++i) s.add(ch.tof_cycles(i * 0.02));
  // Configured 12 ns jitter at 88 MHz ~ 1.06 cycles (plus quantization).
  EXPECT_GT(s.stddev(), 0.5);
  EXPECT_LT(s.stddev(), 2.5);
}

TEST(ChannelTest, RadialVelocitySign) {
  Rng rng(13);
  auto away = std::make_shared<LinearTrajectory>(Vec2{10.0, 0.0}, Vec2{1.0, 0.0}, 1.2);
  WirelessChannel ch_away(ChannelConfig{}, Vec2{0.0, 0.0}, away, rng.split());
  EXPECT_GT(ch_away.radial_velocity(1.0), 1.0);

  auto toward =
      std::make_shared<LinearTrajectory>(Vec2{10.0, 0.0}, Vec2{-1.0, 0.0}, 1.2);
  WirelessChannel ch_toward(ChannelConfig{}, Vec2{0.0, 0.0}, toward, rng.split());
  EXPECT_LT(ch_toward.radial_velocity(1.0), -1.0);
}

TEST(ChannelTest, ShadowConstantForStaticClient) {
  Rng rng(14);
  auto ch = make_static_channel(12.0, rng);
  const double s0 = ch.shadow_db_at(0.0);
  for (double t : {1.0, 10.0, 100.0}) EXPECT_DOUBLE_EQ(ch.shadow_db_at(t), s0);
}

TEST(ChannelTest, ShadowVariesForWalkingClient) {
  Rng rng(15);
  auto traj = std::make_shared<LinearTrajectory>(Vec2{8.0, 0.0}, Vec2{1.0, 0.3}, 1.2);
  WirelessChannel ch(ChannelConfig{}, Vec2{0.0, 0.0}, traj, rng.split());
  OnlineStats s;
  for (double t = 0.0; t < 20.0; t += 0.1) s.add(ch.shadow_db_at(t));
  EXPECT_GT(s.stddev(), 1.0);
}

TEST(ChannelTest, ShadowZeroWhenDisabled) {
  Rng rng(16);
  ChannelConfig cfg;
  cfg.shadow_sigma_db = 0.0;
  auto ch = make_static_channel(12.0, rng, cfg);
  EXPECT_DOUBLE_EQ(ch.shadow_db_at(3.0), 0.0);
}

TEST(ChannelTest, DeterministicGivenSeed) {
  ChannelConfig cfg;
  auto make = [&](std::uint64_t seed) {
    Rng rng(seed);
    auto traj = std::make_shared<StaticTrajectory>(Vec2{11.0, 3.0});
    return WirelessChannel(cfg, Vec2{0.0, 0.0}, traj, rng.split());
  };
  auto a = make(99);
  auto b = make(99);
  EXPECT_DOUBLE_EQ(a.snr_db(1.0), b.snr_db(1.0));
  const CsiMatrix ca = a.csi_at(1.0);
  const CsiMatrix cb = b.csi_at(1.0);
  for (std::size_t i = 0; i < ca.raw().size(); ++i)
    EXPECT_EQ(ca.raw()[i], cb.raw()[i]);
}

TEST(ChannelTest, CsiTrueIsNoiseless) {
  Rng rng(17);
  auto ch = make_static_channel(12.0, rng);
  const CsiMatrix a = ch.csi_true(0.3);
  const CsiMatrix b = ch.csi_true(0.3);
  for (std::size_t i = 0; i < a.raw().size(); ++i) EXPECT_EQ(a.raw()[i], b.raw()[i]);
  EXPECT_NEAR(frame_aging(a, ch.csi_true(0.5)), 0.0, 1e-9);
}

TEST(ChannelTest, MeasuredCsiCloseToTrueAtHighSnr) {
  Rng rng(18);
  auto ch = make_static_channel(8.0, rng);
  EXPECT_LT(frame_aging(ch.csi_true(0.0), ch.csi_at(0.0)), 0.01);
}

TEST(ChannelTest, FullSampleBundlesAllFields) {
  Rng rng(19);
  auto ch = make_static_channel(14.0, rng);
  const ChannelSample s = ch.sample(2.0);
  EXPECT_DOUBLE_EQ(s.t, 2.0);
  EXPECT_FALSE(s.csi.empty());
  EXPECT_DOUBLE_EQ(s.true_distance_m, 14.0);
  EXPECT_GT(s.tof_cycles, 0.0);
  EXPECT_LT(s.rssi_dbm, 0.0);
}

class DistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DistanceSweep, StaticSimilarityHighAtUsableRange) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 100));
  double total = 0.0;
  const int trials = 6;
  for (int trial = 0; trial < trials; ++trial) {
    auto ch = make_static_channel(GetParam(), rng);
    total += csi_similarity(ch.csi_at(0.0), ch.csi_at(0.5));
  }
  EXPECT_GT(total / trials, 0.95) << "distance " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweep,
                         ::testing::Values(6.0, 10.0, 15.0, 20.0, 25.0));

}  // namespace
}  // namespace mobiwlan
