// Tests for the end-to-end system simulation (§7).
#include "sim/overall_sim.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace mobiwlan {
namespace {

WlanDeployment walking_deployment(std::uint64_t seed) {
  Rng rng(seed);
  auto traj = WlanDeployment::corridor_walk(rng);
  return WlanDeployment(WlanDeployment::corridor_layout(), traj, ChannelConfig{},
                        rng);
}

OverallSimConfig short_config(bool aware) {
  OverallSimConfig cfg;
  cfg.duration_s = 20.0;
  cfg.mobility_aware = aware;
  return cfg;
}

TEST(OverallSimTest, BothStacksProduceTraffic) {
  for (bool aware : {false, true}) {
    WlanDeployment wlan = walking_deployment(1);
    Rng rng(2);
    const auto r = simulate_overall(wlan, short_config(aware), rng);
    EXPECT_GT(r.throughput_mbps, 5.0) << "aware=" << aware;
    EXPECT_FALSE(r.associations.empty());
  }
}

TEST(OverallSimTest, DeterministicWithSameSeeds) {
  auto run = [] {
    WlanDeployment wlan = walking_deployment(3);
    Rng rng(4);
    return simulate_overall(wlan, short_config(true), rng).throughput_mbps;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(OverallSimTest, OutageAccountedPerHandoff) {
  WlanDeployment wlan = walking_deployment(5);
  OverallSimConfig cfg = short_config(true);
  cfg.duration_s = 45.0;
  Rng rng(6);
  const auto r = simulate_overall(wlan, cfg, rng);
  EXPECT_NEAR(r.outage_s, r.handoffs * cfg.handoff_outage_s, 1e-9);
}

TEST(OverallSimTest, MobilityAwareStackWinsOnAverage) {
  // The paper's headline (§7): the combined mobility-aware stack beats the
  // default stack on walking workloads.
  double aware_total = 0.0;
  double default_total = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (bool aware : {false, true}) {
      WlanDeployment wlan = walking_deployment(100 + i);
      OverallSimConfig cfg = short_config(aware);
      cfg.duration_s = 30.0;
      Rng rng(200 + i);
      const double tput = simulate_overall(wlan, cfg, rng).throughput_mbps;
      (aware ? aware_total : default_total) += tput;
    }
  }
  EXPECT_GT(aware_total, default_total * 1.05);
}

TEST(OverallSimTest, AssociationsChangeAlongTheWalk) {
  WlanDeployment wlan = walking_deployment(7);
  OverallSimConfig cfg = short_config(true);
  cfg.duration_s = 60.0;
  Rng rng(8);
  const auto r = simulate_overall(wlan, cfg, rng);
  EXPECT_GE(r.associations.size(), 1u);
  for (std::size_t i = 1; i < r.associations.size(); ++i)
    EXPECT_GE(r.associations[i].first, r.associations[i - 1].first);
}

/// Every result field, doubles as hexfloats, so equal strings mean equal
/// bits.
std::string bits(const OverallSimResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "tput=%a handoffs=%d outage=%a assoc=",
                r.throughput_mbps, r.handoffs, r.outage_s);
  std::string s = buf;
  for (const auto& [t, ap] : r.associations) {
    std::snprintf(buf, sizeof buf, "[%a:%zu]", t, ap);
    s += buf;
  }
  return s;
}

TEST(OverallSimTest, FaultedRunBitsPinned) {
  // Pins the faulted live path (simulate_overall over a WlanDeployment with
  // config.fault set) bit for bit, so moving where the fault gating lives
  // cannot move a single draw. A dropped neighbour ToF export is never
  // drawn, so under stock firmware (plan 2) the aware stack is the stock
  // stack bit for bit.
  FaultPlan drops;
  for (StreamFault* f : {&drops.csi, &drops.tof, &drops.rssi}) {
    f->drop_prob = 0.25;
    f->burst_rate_hz = 0.5;
    f->burst_min_s = 0.2;
    f->burst_max_s = 0.8;
  }
  drops.seed = 11;
  FaultPlan delay;
  delay.csi.delay_s = 0.05;
  delay.tof.delay_s = 0.12;
  delay.seed = 12;
  FaultPlan rssi_only;
  rssi_only.rssi_only = true;
  rssi_only.seed = 13;

  const FaultPlan* plans[] = {&drops, &delay, &rssi_only};
  const char* const expected[3][2] = {
      {"tput=0x1.f458bf258bf26p+6 handoffs=3 "
       "outage=0x1.3333333333334p-1 assoc="
       "[0x0p+0:0][0x1.c79fb17ac7b41p+4:1][0x1.0e05e740ebf41p+5:0]"
       "[0x1.2eeea5c26caf4p+5:1]",
       "tput=0x1.261a59d6c455cp+7 handoffs=3 "
       "outage=0x1.3333333333334p-1 assoc="
       "[0x0p+0:0][0x1.c869146c1bd8fp+4:1][0x1.0e88986738bc9p+5:0]"
       "[0x1.2f29aa24beb6bp+5:1]"},
      {"tput=0x1.f248e8a71de6ap+6 handoffs=4 "
       "outage=0x1.999999999999ap-1 assoc="
       "[0x0p+0:0][0x1.c79fb17ac7b41p+4:1][0x1.0e05e740ebf41p+5:0]"
       "[0x1.2e1b0189cee84p+5:1][0x1.55a1e0a58e68bp+5:1]",
       "tput=0x1.36131d5acb6f5p+7 handoffs=6 "
       "outage=0x1.3333333333333p+0 assoc="
       "[0x0p+0:0][0x1.a3383c2184ac6p+4:1][0x1.b034eee7d89d1p+4:0]"
       "[0x1.f2d44112b3e63p+4:0][0x1.1df8fc18aff3ap+5:1]"
       "[0x1.2f117bc8ca607p+5:1][0x1.6981f36e0c88dp+5:1]"},
      {"tput=0x1.f248e8a71de6ap+6 handoffs=4 "
       "outage=0x1.999999999999ap-1 assoc="
       "[0x0p+0:0][0x1.c79fb17ac7b41p+4:1][0x1.0e05e740ebf41p+5:0]"
       "[0x1.2e1b0189cee84p+5:1][0x1.55a1e0a58e68bp+5:1]",
       "tput=0x1.f248e8a71de6ap+6 handoffs=4 "
       "outage=0x1.999999999999ap-1 assoc="
       "[0x0p+0:0][0x1.c79fb17ac7b41p+4:1][0x1.0e05e740ebf41p+5:0]"
       "[0x1.2e1b0189cee84p+5:1][0x1.55a1e0a58e68bp+5:1]"},
  };
  for (int p = 0; p < 3; ++p) {
    for (int aware = 0; aware < 2; ++aware) {
      WlanDeployment wlan = walking_deployment(7);
      OverallSimConfig cfg = short_config(aware == 1);
      cfg.duration_s = 45.0;
      cfg.rssi_threshold_dbm = -70.0;  // threshold roams on every stack
      cfg.fault = *plans[p];
      Rng rng(8);
      EXPECT_EQ(bits(simulate_overall(wlan, cfg, rng)), expected[p][aware])
          << "plan " << p << " aware=" << aware;
    }
  }
}

}  // namespace
}  // namespace mobiwlan
