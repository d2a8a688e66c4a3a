// Bit pins for every protocol loop that watches the classifier's PHY reads:
// simulate_link, simulate_latency, simulate_roaming and the SU / MU-MIMO
// beamforming emulators, each under three fault plans (none, drops + bursts
// + delay, stock firmware). simulate_overall is pinned in overall_sim_test.
// A refactor of how the loops read their source must leave every string
// below unchanged; doubles print as hexfloats, so equal strings mean equal
// bits.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/latency_sim.hpp"
#include "mac/link_sim.hpp"
#include "net/roaming.hpp"
#include "sim/beamforming_sim.hpp"
#include "sim/overall_sim.hpp"
#include "trace/source.hpp"

namespace mobiwlan {
namespace {

/// The three plans every loop is pinned under.
std::vector<FaultPlan> pin_plans() {
  FaultPlan drops;
  for (StreamFault* f : {&drops.csi, &drops.tof, &drops.rssi,
                         &drops.feedback}) {
    f->drop_prob = 0.25;
    f->burst_rate_hz = 0.5;
    f->burst_min_s = 0.2;
    f->burst_max_s = 0.8;
  }
  drops.csi.delay_s = 0.05;
  drops.tof.delay_s = 0.12;
  drops.seed = 21;
  FaultPlan stock;
  stock.rssi_only = true;
  stock.seed = 22;
  return {FaultPlan{}, drops, stock};
}

/// FNV-1a over the bits of each value: one word for a whole series.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    h = (h ^ b) * 0x100000001b3ull;
  }
};

std::string hex(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string hex(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

std::string bits(const LinkSimResult& r) {
  Fold f;
  for (const auto& [t, m] : r.mcs_series) f.add(t), f.add(m);
  for (const auto& [t, m] : r.mode_series)
    f.add(t), f.add(static_cast<int>(m));
  return hex("goodput=%a per=%a frames=%d sent=%d lost=%d full=%d "
             "series=%016llx",
             r.goodput_mbps, r.mean_per, r.frames, r.mpdus_sent, r.mpdus_lost,
             r.full_loss_events, static_cast<unsigned long long>(f.h));
}

std::string bits(const LatencySimResult& r) {
  Fold f;
  for (double x : r.latencies_s.samples()) f.add(x);
  return hex("goodput=%a delivered=%d dropped=%d offered=%d leftover=%d "
             "latencies=%016llx",
             r.goodput_mbps, r.delivered, r.dropped, r.offered, r.leftover,
             static_cast<unsigned long long>(f.h));
}

std::string bits(const RoamingResult& r) {
  std::string s = hex("tput=%a handoffs=%d scans=%d outage=%a assoc=",
                      r.mean_throughput_mbps, r.handoffs, r.scans, r.outage_s);
  for (const auto& [t, ap] : r.associations) s += hex("[%a:%zu]", t, ap);
  return s;
}

std::string bits(const OverallSimResult& r) {
  std::string s = hex("tput=%a handoffs=%d outage=%a assoc=",
                      r.throughput_mbps, r.handoffs, r.outage_s);
  for (const auto& [t, ap] : r.associations) s += hex("[%a:%zu]", t, ap);
  return s;
}

WlanDeployment walking_deployment(std::uint64_t seed) {
  Rng rng(seed);
  auto traj = WlanDeployment::corridor_walk(rng);
  return WlanDeployment(WlanDeployment::corridor_layout(), traj,
                        ChannelConfig{}, rng);
}

TEST(LoopBitsTest, LinkBitsPinned) {
  const char* const expected[3] = {
      "goodput=0x1.6045a1cac0831p+6 per=0x1.308690d3e9aaap-1 "
      "frames=1306 sent=54333 lost=32316 full=7 "
      "series=b6d769f3d7e8eb88",
      "goodput=0x1.3b3b645a1cac1p+6 per=0x1.46d4dda270355p-1 "
      "frames=1234 sent=54477 lost=34775 full=8 "
      "series=5764c00d50f2b66c",
      "goodput=0x1.851eb851eb852p+5 per=0x1.8f081059c7bd2p-1 "
      "frames=898 sent=55112 lost=42952 full=5 "
      "series=1eb439e6ffab3b5f"};
  const auto plans = pin_plans();
  for (int p = 0; p < 3; ++p) {
    Rng rng(31);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    LinkSimConfig cfg;
    cfg.duration_s = 3.0;
    cfg.aggregation.adaptive = true;
    cfg.fault = plans[p];
    Rng sim_rng(32);
    EXPECT_EQ(bits(simulate_link(s, ra, cfg, sim_rng)), expected[p])
        << "plan " << p;
  }
}

TEST(LoopBitsTest, LatencyBitsPinned) {
  const char* const expected[3] = {
      "goodput=0x1.8p+4 delivered=6000 dropped=0 offered=6000 "
      "leftover=0 latencies=a6a18c5a73465cc7",
      "goodput=0x1.8p+4 delivered=6000 dropped=0 offered=6000 "
      "leftover=0 latencies=f62b1045da4ef6c7",
      "goodput=0x1.8p+4 delivered=6000 dropped=0 offered=6000 "
      "leftover=0 latencies=3719b3d0f37554c7"};
  const auto plans = pin_plans();
  for (int p = 0; p < 3; ++p) {
    Rng rng(41);
    Scenario s = make_scenario(MobilityClass::kMicro, rng);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    LatencySimConfig cfg;
    cfg.duration_s = 3.0;
    cfg.aggregation.adaptive = true;
    cfg.fault = plans[p];
    Rng sim_rng(42);
    EXPECT_EQ(bits(simulate_latency(s, ra, cfg, sim_rng)), expected[p])
        << "plan " << p;
  }
}

RoamingResult roam(RoamingScheme scheme, const FaultPlan& plan) {
  WlanDeployment wlan = walking_deployment(51);
  RoamingConfig cfg;
  cfg.duration_s = 45.0;
  cfg.rssi_threshold_dbm = -70.0;  // threshold roams on every scheme
  cfg.fault = plan;
  return simulate_roaming(wlan, scheme, cfg);
}

TEST(LoopBitsTest, RoamingBitsPinned) {
  const char* const expected[3][2] = {
      {"tput=0x1.5009c324fde2cp+7 handoffs=3 scans=0 "
       "outage=0x1.333333333334fp-1 "
       "assoc=[0x0p+0:3][0x1.b333333333335p-1:2]"
       "[0x1.399999999998fp+2:3][0x1.6399999999963p+5:3]",
       "tput=0x1.4fb7a9157dbc1p+7 handoffs=3 scans=0 "
       "outage=0x1.333333333334fp-1 "
       "assoc=[0x0p+0:3][0x1.e666666666669p-1:2]"
       "[0x1.3fffffffffff5p+2:3][0x1.4b33333333315p+5:3]"},
      {"tput=0x1.4a86d6045604ep+7 handoffs=3 scans=0 "
       "outage=0x1.333333333334fp-1 "
       "assoc=[0x0p+0:3][0x1.e666666666669p-1:2]"
       "[0x1.4ccccccccccc1p+2:3][0x1.47fffffffffe5p+5:2]",
       "tput=0x1.4e32152a1b572p+7 handoffs=4 scans=0 "
       "outage=0x1.99999999999cep-1 "
       "assoc=[0x0p+0:3][0x1.0000000000001p+0:2]"
       "[0x1.4ccccccccccc1p+2:3][0x1.486666666664bp+5:2]"
       "[0x1.4a66666666649p+5:3]"},
      {"tput=0x1.5009c324fde2cp+7 handoffs=3 scans=0 "
       "outage=0x1.333333333334fp-1 "
       "assoc=[0x0p+0:3][0x1.b333333333335p-1:2]"
       "[0x1.399999999998fp+2:3][0x1.6399999999963p+5:3]",
       "tput=0x1.5009c324fde2cp+7 handoffs=3 scans=0 "
       "outage=0x1.333333333334fp-1 "
       "assoc=[0x0p+0:3][0x1.b333333333335p-1:2]"
       "[0x1.399999999998fp+2:3][0x1.6399999999963p+5:3]"}};
  const auto plans = pin_plans();
  const RoamingScheme schemes[2] = {RoamingScheme::kDefault,
                                    RoamingScheme::kMotionAware};
  for (int p = 0; p < 3; ++p)
    for (int k = 0; k < 2; ++k)
      EXPECT_EQ(bits(roam(schemes[k], plans[p])), expected[p][k])
          << "plan " << p << " " << to_string(schemes[k]);
}

BeamformingSimConfig adaptive_bf_config() {
  BeamformingSimConfig cfg;
  cfg.duration_s = 3.0;
  cfg.adaptive_period = true;
  return cfg;
}

TEST(LoopBitsTest, SuBeamformingBitsPinned) {
  const char* const expected[3] = {
      "tput=0x1.697df7b983308p+6 gain=0x1.2cdc778a2f3e2p+2 "
      "overhead=0x1.6afa8bf129e38p-5",
      "tput=0x1.6b1c1ce5adad9p+6 gain=0x1.2b8bcb57a3f09p+2 "
      "overhead=0x1.47f13059641dap-5",
      "tput=0x1.70cde76ca9a31p+6 gain=0x1.2630a85d3976ap+2 "
      "overhead=0x1.993a19531a789p-6"};
  const auto plans = pin_plans();
  for (int p = 0; p < 3; ++p) {
    Rng rng(61);
    Scenario s = make_scenario(MobilityClass::kMicro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::FaultedSource src(live, plans[p]);
    const auto r = simulate_su_beamforming(src, adaptive_bf_config());
    EXPECT_EQ(hex("tput=%a gain=%a overhead=%a", r.throughput_mbps,
                  r.mean_gain_db, r.overhead_fraction),
              expected[p])
        << "plan " << p;
  }
}

TEST(LoopBitsTest, MuMimoBitsPinned) {
  const char* const expected[3] = {
      "total=0x1.fe36623f905fp+6 c0=0x1.60cf1fbc01c5p+6 "
      "c1=0x1.3ace85071d341p+5",
      "total=0x1.f82d80bfce50ep+6 c0=0x1.60a4b2d220d2ap+6 "
      "c1=0x1.2f119bdb5afc9p+5",
      "total=0x1.e95e58d3d49f8p+6 c0=0x1.616016b4bfaddp+6 "
      "c1=0x1.0ffc843e29e36p+5"};
  const auto plans = pin_plans();
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  for (int p = 0; p < 3; ++p) {
    Rng rng(71);
    std::deque<Scenario> clients;
    std::deque<trace::LiveChannelSource> live;
    std::deque<trace::FaultedSource> faulted;
    std::vector<trace::ObservableSource*> sources;
    for (MobilityClass cls : {MobilityClass::kStatic, MobilityClass::kMacro}) {
      Scenario& s = clients.emplace_back(make_scenario(cls, rng, opt));
      sources.push_back(
          &faulted.emplace_back(live.emplace_back(*s.channel), plans[p]));
    }
    const auto r = simulate_mu_mimo(sources, adaptive_bf_config());
    EXPECT_EQ(hex("total=%a c0=%a c1=%a", r.total_mbps, r.per_client_mbps[0],
                  r.per_client_mbps[1]),
              expected[p])
        << "plan " << p;
  }
}

TEST(LoopBitsTest, StockFirmwareOverallEqualsStockStack) {
  // Without CSI and ToF exports the aware stack never gets a decision, so
  // every knob stays at its stock value and no read may differ either.
  FaultPlan stock;
  stock.rssi_only = true;
  stock.seed = 23;
  std::string runs[2];
  for (int aware = 0; aware < 2; ++aware) {
    WlanDeployment wlan = walking_deployment(81);
    OverallSimConfig cfg;
    cfg.duration_s = 45.0;
    cfg.rssi_threshold_dbm = -70.0;
    cfg.mobility_aware = aware == 1;
    cfg.fault = stock;
    Rng rng(82);
    runs[aware] = bits(simulate_overall(wlan, cfg, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
}

TEST(LoopBitsTest, StockFirmwareMotionAwareRoamingEqualsDefault) {
  FaultPlan stock;
  stock.rssi_only = true;
  stock.seed = 24;
  EXPECT_EQ(bits(roam(RoamingScheme::kMotionAware, stock)),
            bits(roam(RoamingScheme::kDefault, stock)));
}

}  // namespace
}  // namespace mobiwlan
