// Tests for MobilityObserver, the CSI/ToF watching every protocol loop
// shares: cadence catch-up, the absence rule, serving vs neighbour routing,
// reassociation, the §3.1 steering pick, and a steady state that makes no
// heap allocation.
#include "mac/observer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "net/deployment_source.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"

namespace mobiwlan {
namespace {

/// Scripted three-unit source. CSI is fresh noise on every read (so the
/// classifier sees device mobility); unit u's ToF ramps at tof_slope[u]
/// cycles/s; scan RSSI is scan[u] (NaN = no reading). Every CSI and ToF
/// read is logged as (unit, t), served or not.
class ScriptedSource : public trace::ObservableSource {
 public:
  struct Read {
    std::uint32_t unit;
    double t;
  };

  std::size_t n_units() const override { return 3; }
  bool has(trace::StreamKind) const override { return true; }
  bool csi(std::uint32_t u, double t, CsiMatrix& out) override {
    csi_reads.push_back({u, t});
    if (!csi_present) return false;
    out = CsiMatrix(1, 2, 30);
    for (auto& v : out.raw())
      v = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
    return true;
  }
  bool csi_feedback(std::uint32_t, double, CsiMatrix&) override {
    return false;
  }
  bool csi_true(std::uint32_t, double, CsiMatrix&) override { return false; }
  std::optional<double> rssi_dbm(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double) override {
    if (scan[u] != scan[u]) return std::nullopt;
    return scan[u];
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    tof_reads.push_back({u, t});
    if (!tof_present) return std::nullopt;
    return 500.0 + tof_slope[u] * t;
  }
  std::optional<double> snr_db(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> true_distance(std::uint32_t, double) override {
    return std::nullopt;
  }

  bool csi_present = true;
  bool tof_present = true;
  double tof_slope[3] = {2.0, -2.0, -2.0};  // 0 recedes, 1 and 2 approach
  double scan[3] = {-60.0, -61.0, -61.0};
  std::vector<Read> csi_reads;
  std::vector<Read> tof_reads;
  Rng rng{7};
};

MobilityClassifier::Config exact_cadences() {
  MobilityClassifier::Config cfg;
  cfg.csi_period_s = 0.25;   // binary-exact periods: the due instants are
  cfg.tof_period_s = 0.125;  // exact multiples, so the counts are too
  return cfg;
}

TEST(MobilityObserverTest, CatchesUpOnEveryDueReading) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 1.0);
  // CSI of the serving unit at 0, 0.25, .., 1.0; ToF of every unit at each
  // of 0, 0.125, .., 1.0, in unit order.
  ASSERT_EQ(src.csi_reads.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(src.csi_reads[i].unit, 0u);
    EXPECT_EQ(src.csi_reads[i].t, 0.25 * static_cast<double>(i));
  }
  ASSERT_EQ(src.tof_reads.size(), 27u);
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(src.tof_reads[i].unit, i % 3);
    EXPECT_EQ(src.tof_reads[i].t, 0.125 * static_cast<double>(i / 3));
  }
  // Nothing new is due at the same instant; a later one reads only what
  // has come due since.
  obs.advance(src, 0, 1.0);
  EXPECT_EQ(src.csi_reads.size(), 5u);
  EXPECT_EQ(src.tof_reads.size(), 27u);
  obs.advance(src, 0, 1.3);
  EXPECT_EQ(src.csi_reads.size(), 6u);
  EXPECT_EQ(src.tof_reads.size(), 33u);
  EXPECT_EQ(src.tof_reads.back().t, 1.25);
}

TEST(MobilityObserverTest, RoutesServingToClassifierAndNeighboursToTrackers) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Fresh-noise CSI reads as device mobility, and the serving unit's rising
  // ToF makes the classifier call the client walking away.
  ASSERT_TRUE(obs.classifier().similarity());
  EXPECT_EQ(obs.classifier().decision(12.0), MobilityMode::kMacroAway);
  // Both approaching neighbours qualify at -61 dB (>= -60 - 1); the last
  // of equal readings wins. The serving unit is never a candidate.
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
  src.scan[1] = -55.0;
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 1u);
}

TEST(MobilityObserverTest, ServingUnitFeedsNoHeadingTracker) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 1, 12.0);  // unit 1 serves the whole run
  // Its tracker never saw a reading, so from unit 0's side only unit 2 is
  // heading closer, whatever unit 1's signal.
  src.scan[1] = -40.0;
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
  // And unit 1's falling ToF went to the classifier instead.
  EXPECT_EQ(obs.classifier().decision(12.0), MobilityMode::kMacroToward);
}

TEST(MobilityObserverTest, AbsentReadsReachNeitherClassifierNorTrackers) {
  ScriptedSource src;
  src.csi_present = false;
  src.tof_present = false;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Every due reading was asked for once and skipped, not retried.
  EXPECT_EQ(src.csi_reads.size(), 49u);
  EXPECT_EQ(src.tof_reads.size(), 3u * 97u);
  EXPECT_FALSE(obs.classifier().similarity());
  EXPECT_FALSE(obs.classifier().decision(12.0));
  EXPECT_FALSE(obs.steer_target(src, 0, -60.0, 12.0));
}

TEST(MobilityObserverTest, ReassociateRestartsClassifierKeepsTrackers) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  ASSERT_TRUE(obs.classifier().decision(12.0));
  obs.reassociate();
  EXPECT_FALSE(obs.classifier().similarity());
  EXPECT_FALSE(obs.classifier().decision(12.0));
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
}

TEST(MobilityObserverTest, SteerTargetNoCandidate) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Both approaching neighbours are more than 1 dB below the serving AP.
  EXPECT_FALSE(obs.steer_target(src, 0, -59.0, 12.0));
  // A neighbour without a scan reading is no candidate either.
  src.scan[1] = src.scan[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(obs.steer_target(src, 0, -70.0, 12.0));
  // A single-unit observer has no neighbours to steer to.
  MobilityObserver single(exact_cadences(), 1);
  single.advance(src, 0, 12.0);
  EXPECT_FALSE(single.steer_target(src, 0, -70.0, 12.0));
}

TEST(MobilityObserverTest, SteadyStateAdvanceAndScanAreAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  Rng rng(3);
  auto traj = WlanDeployment::corridor_walk(rng);
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                      ChannelConfig{}, rng);
  LiveDeploymentSource src(wlan);
  MobilityObserver obs(MobilityClassifier::Config{}, src.n_units());
  double t = 0.0;
  auto step = [&] {
    obs.advance(src, 2, t);
    (void)src.strongest_unit(t);
    t += 0.05;
  };
  for (int i = 0; i < 200; ++i) step();  // 10 s: every tracker window full
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) step();
  EXPECT_EQ(alloc_count() - before, 0u);
}

}  // namespace
}  // namespace mobiwlan
