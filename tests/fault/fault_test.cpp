// Unit tests for the PHY-observable fault-injection layer (src/fault/) and
// trace::FaultedSource, which applies it to every PHY read.
//
// The load-bearing contract is zero-fault bitwise identity: an all-zero
// FaultPlan must make exactly the same channel calls in the same order as
// code that never heard of faults, and a *dropped* reading must leave the
// channel's RNG untouched (the export was lost, not the measurement loop's
// draw order). Several tests below pin that by comparing against a twin
// channel built from the same seed.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "chan/scenario.hpp"
#include "trace/source.hpp"

namespace mobiwlan {
namespace {

Scenario twin_scenario(std::uint64_t seed) {
  Rng rng(seed);
  return make_scenario(MobilityClass::kMacro, rng);
}

TEST(FaultStreamTest, DefaultStreamDeliversEverythingUnshifted) {
  FaultStream s;
  for (double t = 0.0; t < 50.0; t += 0.25) {
    EXPECT_TRUE(s.deliver(t));
    EXPECT_EQ(s.measured_t(t), t);
  }
}

TEST(FaultStreamTest, ZeroPlanMakeStreamIsInactive) {
  const FaultPlan plan;  // all-zero
  FaultStream s = make_stream(plan, FaultStreamKind::kCsi, 3);
  for (double t = 0.0; t < 20.0; t += 0.1) EXPECT_TRUE(s.deliver(t));
}

TEST(FaultStreamTest, BernoulliDropRateMatchesConfiguredProbability) {
  FaultPlan plan;
  plan.seed = 42;
  plan.csi.drop_prob = 0.3;
  FaultStream s = make_stream(plan, FaultStreamKind::kCsi);
  const int n = 20000;
  int delivered = 0;
  for (int i = 0; i < n; ++i)
    if (s.deliver(i * 0.01)) ++delivered;
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.02);
}

TEST(FaultStreamTest, BurstsCarveContiguousOutages) {
  FaultPlan plan;
  plan.seed = 7;
  plan.tof.burst_rate_hz = 0.5;
  plan.tof.burst_min_s = 1.0;
  plan.tof.burst_max_s = 2.0;
  FaultStream s = make_stream(plan, FaultStreamKind::kTof);
  // Sample at 100 Hz; every completed loss run must span >= ~1 s.
  int completed_runs = 0;
  int shortest_run = 1 << 30;
  int current = 0;
  for (double t = 0.0; t < 200.0; t += 0.01) {
    if (!s.deliver(t)) {
      ++current;
    } else if (current > 0) {
      ++completed_runs;
      shortest_run = std::min(shortest_run, current);
      current = 0;
    }
  }
  EXPECT_GT(completed_runs, 10);
  EXPECT_GE(shortest_run, 90);
}

TEST(FaultStreamTest, DelayShiftsMeasurementTime) {
  FaultPlan plan;
  plan.seed = 1;
  plan.csi.delay_s = 0.75;
  FaultStream s = make_stream(plan, FaultStreamKind::kCsi);
  EXPECT_DOUBLE_EQ(s.measured_t(2.0), 1.25);
  EXPECT_DOUBLE_EQ(s.measured_t(0.5), 0.0);  // clamped at the epoch
}

TEST(FaultStreamTest, SubstreamsAreReproducibleAndUnitDecorrelated) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rssi.drop_prob = 0.5;
  FaultStream a = make_stream(plan, FaultStreamKind::kRssi, 4);
  FaultStream b = make_stream(plan, FaultStreamKind::kRssi, 4);
  FaultStream c = make_stream(plan, FaultStreamKind::kRssi, 5);
  int unit_disagreements = 0;
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 0.1;
    const bool da = a.deliver(t);
    EXPECT_EQ(da, b.deliver(t));  // pure function of (seed, kind, unit)
    if (da != c.deliver(t)) ++unit_disagreements;
  }
  EXPECT_GT(unit_disagreements, 200);  // distinct units draw distinct worlds
}

// The degraded observables of one link: trace::FaultedSource over a
// trace::LiveChannelSource, read at unit 0.
struct FaultedLink {
  FaultedLink(const Scenario& s, const FaultPlan& plan)
      : live(*s.channel), faulted(live, plan) {}
  trace::LiveChannelSource live;
  trace::FaultedSource faulted;
};

TEST(DegradedObservablesTest, ZeroPlanIsBitwiseIdenticalToRawChannel) {
  const Scenario a = twin_scenario(2024);
  const Scenario b = twin_scenario(2024);
  FaultedLink link(a, FaultPlan{});
  trace::ObservableSource& obs = link.faulted;
  CsiMatrix csi;
  for (double t = 0.0; t < 12.0; t += 0.25) {
    ASSERT_TRUE(obs.csi(0, t, csi));
    EXPECT_EQ(csi.raw(), b.channel->csi_at(t).raw());
    const auto tof = obs.tof_cycles(0, t);
    ASSERT_TRUE(tof.has_value());
    EXPECT_EQ(*tof, b.channel->tof_cycles(t));
    const auto rssi = obs.rssi_dbm(0, t);
    ASSERT_TRUE(rssi.has_value());
    EXPECT_EQ(*rssi, b.channel->rssi_dbm(t));
    EXPECT_TRUE(obs.feedback_delivered(0, t));
  }
}

TEST(DegradedObservablesTest, RssiOnlyFallbackKeepsOnlyRssi) {
  const Scenario a = twin_scenario(5);
  const Scenario b = twin_scenario(5);
  FaultPlan plan;
  plan.rssi_only = true;
  FaultedLink link(a, plan);
  trace::ObservableSource& obs = link.faulted;
  CsiMatrix csi;
  for (double t = 0.0; t < 5.0; t += 0.5) {
    EXPECT_FALSE(obs.csi(0, t, csi));
    EXPECT_FALSE(obs.tof_cycles(0, t).has_value());
    EXPECT_FALSE(obs.feedback_delivered(0, t));
    const auto rssi = obs.rssi_dbm(0, t);
    ASSERT_TRUE(rssi.has_value());
    EXPECT_EQ(*rssi, b.channel->rssi_dbm(t));
  }
}

TEST(DegradedObservablesTest, DroppedReadingLeavesChannelRngUntouched) {
  const Scenario a = twin_scenario(77);
  const Scenario b = twin_scenario(77);
  FaultPlan plan;
  plan.seed = 3;
  plan.csi.drop_prob = 1.0;  // every CSI export lost
  FaultedLink link(a, plan);
  trace::ObservableSource& obs = link.faulted;
  CsiMatrix csi;
  for (double t = 0.0; t < 5.0; t += 0.5) {
    EXPECT_FALSE(obs.csi(0, t, csi));
    // The twin never issues the CSI call at all; if the drop path had
    // consumed channel randomness, these subsequent draws would diverge.
    const auto tof = obs.tof_cycles(0, t);
    ASSERT_TRUE(tof.has_value());
    EXPECT_EQ(*tof, b.channel->tof_cycles(t));
  }
}

TEST(DegradedObservablesTest, DelayedReadingIsTheOlderObservable) {
  const Scenario a = twin_scenario(31);
  const Scenario b = twin_scenario(31);
  FaultPlan plan;
  plan.seed = 8;
  plan.tof.delay_s = 0.5;
  FaultedLink link(a, plan);
  trace::ObservableSource& obs = link.faulted;
  for (double t = 1.0; t < 8.0; t += 0.5) {
    const auto tof = obs.tof_cycles(0, t);
    ASSERT_TRUE(tof.has_value());
    // Staleness contract: the consumer never sees anything newer than
    // t - delay_s.
    EXPECT_EQ(*tof, b.channel->tof_cycles(t - 0.5));
  }
}

}  // namespace
}  // namespace mobiwlan
