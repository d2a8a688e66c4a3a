// Property suite: invariants of the fault-injection layer over random
// scenarios, fault plans, and sampling cadences, read through
// trace::FaultedSource over live sources.
//
// The three contracts that keep faulted experiments meaningful:
//   * an all-zero FaultPlan is bitwise invisible — same channel calls, same
//     draws, same values as code with no fault layer at all;
//   * fault decisions are a pure function of (plan.seed, kind, unit) — two
//     observers with the same plan over twin channels agree call-for-call,
//     which is what makes faulted runs --jobs-independent;
//   * staleness is a hard bound — a delivered reading describes the channel
//     at t - delay_s, never anything newer.
#include <gtest/gtest.h>

#include "chan/scenario.hpp"
#include "fault/fault.hpp"
#include "net/deployment_source.hpp"
#include "proptest.hpp"
#include "trace/source.hpp"

namespace mobiwlan {
namespace {

using proptest::run_cases;

constexpr MobilityClass kAllClasses[] = {
    MobilityClass::kStatic, MobilityClass::kEnvironmental, MobilityClass::kMicro,
    MobilityClass::kMacro};

/// Twin scenarios for the same class/seed: byte-identical channels whose
/// generators advance in lockstep as long as both sides make the same calls.
struct Twins {
  Scenario a;
  Scenario b;
};

Twins make_twins(std::uint64_t seed, int case_index) {
  const MobilityClass cls = kAllClasses[case_index % 4];
  Rng ra(seed), rb(seed);
  return {make_scenario(cls, ra), make_scenario(cls, rb)};
}

/// A random plan exercising every fault shape at once.
FaultPlan random_plan(Rng& rng) {
  FaultPlan plan;
  plan.seed = rng.next_u64();
  plan.csi.drop_prob = rng.uniform(0.0, 0.6);
  plan.csi.delay_s = rng.uniform(0.0, 1.0);
  plan.tof.drop_prob = rng.uniform(0.0, 0.6);
  plan.tof.burst_rate_hz = rng.uniform(0.0, 0.5);
  plan.tof.burst_min_s = 0.5;
  plan.tof.burst_max_s = rng.uniform(0.5, 2.0);
  plan.rssi.drop_prob = rng.uniform(0.0, 0.3);
  plan.feedback.drop_prob = rng.uniform(0.0, 0.3);
  return plan;
}

TEST(FaultProperty, ZeroPlanIsBitwiseInvisible) {
  run_cases("fault_zero_plan_identity", [](Rng& rng, int i) {
    const std::uint64_t seed = rng.next_u64();
    Twins tw = make_twins(seed, i);
    trace::LiveChannelSource live(*tw.a.channel);
    trace::FaultedSource obs(live, FaultPlan{});
    CsiMatrix csi;
    const double period = rng.uniform(0.05, 0.5);
    for (double t = 0.0; t < 10.0; t += period) {
      ASSERT_TRUE(obs.csi(0, t, csi));
      ASSERT_EQ(csi.raw(), tw.b.channel->csi_at(t).raw());
      const auto tof = obs.tof_cycles(0, t);
      ASSERT_TRUE(tof.has_value());
      ASSERT_EQ(*tof, tw.b.channel->tof_cycles(t));
      const auto rssi = obs.rssi_dbm(0, t);
      ASSERT_TRUE(rssi.has_value());
      ASSERT_EQ(*rssi, tw.b.channel->rssi_dbm(t));
      ASSERT_TRUE(obs.feedback_delivered(0, t));
    }
  }, 48);
}

TEST(FaultProperty, SamePlanIsReproducibleAcrossObservers) {
  run_cases("fault_same_plan_reproducible", [](Rng& rng, int i) {
    const std::uint64_t seed = rng.next_u64();
    Twins tw = make_twins(seed, i);
    const FaultPlan plan = random_plan(rng);
    // Twin 8-AP deployments along the twin scenarios' trajectory: each AP
    // index is a unit with its own channel and its own fault substreams.
    Rng da(seed + 1), db(seed + 1);
    WlanDeployment wa(WlanDeployment::corridor_layout(8), tw.a.trajectory,
                      ChannelConfig{}, da);
    WlanDeployment wb(WlanDeployment::corridor_layout(8), tw.b.trajectory,
                      ChannelConfig{}, db);
    LiveDeploymentSource la(wa), lb(wb);
    trace::FaultedSource oa(la, plan), ob(lb, plan);
    const auto unit = static_cast<std::uint32_t>(rng.next_u64() % 8);
    CsiMatrix ca, cb;
    const double period = rng.uniform(0.05, 0.5);
    int delivered = 0;
    for (double t = 0.0; t < 10.0; t += period) {
      // Delivery is a pure function of (plan.seed, kind, unit): both
      // observers must agree on every drop, and on the delivered values —
      // disagreement would also desynchronize the twin channels' RNGs and
      // cascade, so any divergence shows up immediately.
      const bool ha = oa.csi(unit, t, ca);
      ASSERT_EQ(ha, ob.csi(unit, t, cb));
      if (ha) {
        ASSERT_EQ(ca.raw(), cb.raw());
        ++delivered;
      }
      const auto ta = oa.tof_cycles(unit, t);
      const auto tb = ob.tof_cycles(unit, t);
      ASSERT_EQ(ta.has_value(), tb.has_value());
      if (ta) {
        ASSERT_EQ(*ta, *tb);
      }
      const auto ra = oa.rssi_dbm(unit, t);
      const auto rb = ob.rssi_dbm(unit, t);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra) {
        ASSERT_EQ(*ra, *rb);
      }
      ASSERT_EQ(oa.feedback_delivered(unit, t), ob.feedback_delivered(unit, t));
    }
    // drop_prob <= 0.6 over >= 20 samples: statistically impossible to lose
    // everything; guards against a deliver() that is accidentally all-false.
    EXPECT_GT(delivered, 0);
  }, 48);
}

TEST(FaultProperty, DeliveredReadingIsNeverNewerThanInjectionDelay) {
  run_cases("fault_staleness_bound", [](Rng& rng, int i) {
    const std::uint64_t seed = rng.next_u64();
    Twins tw = make_twins(seed, i);
    FaultPlan plan;
    plan.seed = rng.next_u64();
    plan.csi.drop_prob = rng.uniform(0.0, 0.5);
    plan.csi.delay_s = rng.uniform(0.1, 1.5);
    trace::LiveChannelSource live(*tw.a.channel);
    trace::FaultedSource obs(live, plan);
    // Oracle: a second stream with the same plan predicts the drops, and the
    // twin channel — called only at delivered instants, at the delayed time —
    // stays in RNG lockstep with the observer.
    FaultStream oracle = make_stream(plan, FaultStreamKind::kCsi);
    const double period = rng.uniform(0.1, 0.6);
    CsiMatrix csi;
    for (double t = 0.0; t < 12.0; t += period) {
      const bool have = obs.csi(0, t, csi);
      ASSERT_EQ(have, oracle.deliver(t));
      if (!have) continue;
      // The classifier (or any consumer) reads the channel as it was
      // delay_s ago — exactly, not approximately — clamped at the epoch
      // (before t = delay_s no export could have arrived yet).
      const double stale_t = oracle.measured_t(t);
      const double shifted = t - plan.csi.delay_s;
      ASSERT_EQ(stale_t, shifted > 0.0 ? shifted : 0.0);
      ASSERT_LE(stale_t, t);
      ASSERT_EQ(csi.raw(), tw.b.channel->csi_at(stale_t).raw());
    }
  }, 48);
}

}  // namespace
}  // namespace mobiwlan
