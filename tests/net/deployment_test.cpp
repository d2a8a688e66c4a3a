// Tests for the multi-AP deployment.
#include "net/deployment.hpp"

#include <gtest/gtest.h>

#include "net/deployment_source.hpp"

namespace mobiwlan {
namespace {

TEST(DeploymentTest, CorridorLayoutSpacing) {
  const auto layout = WlanDeployment::corridor_layout(6, 25.0);
  ASSERT_EQ(layout.size(), 6u);
  for (std::size_t i = 1; i < layout.size(); ++i) {
    EXPECT_DOUBLE_EQ(layout[i].x - layout[i - 1].x, 25.0);
    EXPECT_DOUBLE_EQ(layout[i].y, 0.0);
  }
}

TEST(DeploymentTest, OneChannelPerAp) {
  Rng rng(1);
  auto traj = std::make_shared<StaticTrajectory>(Vec2{10.0, 3.0});
  WlanDeployment wlan(WlanDeployment::corridor_layout(4), traj, ChannelConfig{}, rng);
  EXPECT_EQ(wlan.n_aps(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(wlan.channel(i).ap_position().x, wlan.ap_position(i).x);
  }
}

TEST(DeploymentTest, StrongestApIsNearbyOne) {
  // With shadowing the nearest AP is not always strongest, but over several
  // random deployments the strongest AP should be among the closest.
  int near_wins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(100 + trial);
    auto traj = std::make_shared<StaticTrajectory>(Vec2{2.0, 1.0});
    WlanDeployment wlan(WlanDeployment::corridor_layout(6, 30.0), traj,
                        ChannelConfig{}, rng);
    LiveDeploymentSource src(wlan);
    if (src.strongest_unit(0.0) <= 1u) ++near_wins;
  }
  EXPECT_GE(near_wins, 8);
}

TEST(DeploymentTest, StrongestUnitMatchesArgmaxScan) {
  // The scan over a live deployment is one RSSI draw per AP in AP order and
  // a first-wins argmax (RSSI is quantized, so ties happen): a twin
  // deployment read link by link must pick the same AP at every scan.
  auto make = [] {
    Rng rng(9);
    auto traj = WlanDeployment::corridor_walk(rng);
    return WlanDeployment(WlanDeployment::corridor_layout(), traj,
                          ChannelConfig{}, rng);
  };
  WlanDeployment wlan = make();
  WlanDeployment twin = make();
  LiveDeploymentSource src(wlan);
  ChannelBatch::Scratch scratch;
  for (double t = 0.0; t < 60.0; t += 0.5) {
    std::size_t want = 0;
    double best = 0.0;
    for (std::size_t ap = 0; ap < twin.n_aps(); ++ap) {
      const double rssi = ChannelBatch::rssi_link(twin.channel(ap), t, scratch);
      if (ap == 0 || rssi > best) {
        best = rssi;
        want = ap;
      }
    }
    EXPECT_EQ(src.strongest_unit(t), want) << "t=" << t;
  }
}

TEST(DeploymentTest, ChannelsSeeTheSameClient) {
  Rng rng(2);
  auto traj = WlanDeployment::corridor_walk(rng, 3, 20.0);
  WlanDeployment wlan(WlanDeployment::corridor_layout(3, 20.0), traj,
                      ChannelConfig{}, rng);
  // The trajectory is shared: distance differences equal geometry differences.
  const Vec2 client = traj->position(5.0);
  for (std::size_t ap = 0; ap < 3; ++ap) {
    EXPECT_NEAR(wlan.channel(ap).true_distance(5.0),
                distance(wlan.ap_position(ap), client), 1e-9);
  }
}

TEST(DeploymentTest, CorridorWalkStaysNearCorridor) {
  Rng rng(3);
  auto traj = WlanDeployment::corridor_walk(rng, 6, 28.0);
  for (double t = 0.0; t < 200.0; t += 1.0) {
    const Vec2 p = traj->position(t);
    EXPECT_GE(p.x, -7.0);
    EXPECT_LE(p.x, 5.0 * 28.0 + 7.0);
    EXPECT_LE(std::abs(p.y), 9.5);
  }
}

TEST(DeploymentTest, IndependentScattererFieldsPerAp) {
  Rng rng(4);
  auto traj = std::make_shared<StaticTrajectory>(Vec2{30.0, 0.0});
  // Two co-located APs still see different multipath (different furniture
  // around each radio path) — their instantaneous SNR differs by shadowing
  // and scatterer draws.
  std::vector<Vec2> both{{0.0, 0.0}, {0.0, 0.0}};
  WlanDeployment wlan(both, traj, ChannelConfig{}, rng);
  EXPECT_NE(wlan.channel(0).snr_db(0.0), wlan.channel(1).snr_db(0.0));
}

}  // namespace
}  // namespace mobiwlan
