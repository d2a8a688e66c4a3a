// Tests for the per-MPDU latency simulator.
#include "mac/latency_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mac/atheros_ra.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

TEST(LatencyLossDrawTest, SteadyStateFramesDoNotAllocate) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  // simulate_latency's per-frame loss path: kernel pricing plus the
  // delivery draw into the buffer it reserves once.
  std::vector<bool> delivered;
  delivered.reserve(kMaxAmpduMpdus);
  Rng rng(11);
  // Looking the grid up makes it; its rows are built inside the meter.
  const PerGrid& grid = PerGrid::shared(1500, {});
  // Warm-up frame: the first mcs() call builds the MCS table.
  draw_ampdu_deliveries(mcs(0), 12.0, 0.0, 1, grid, rng, delivered);
  const std::uint64_t before = alloc_count();
  int lost = 0;
  for (int frame = 0; frame < 2000; ++frame) {
    const int n = 1 + frame % kMaxAmpduMpdus;
    const double decorr_end = (frame % 3 == 0) ? 0.0 : 0.002 * (frame % 50);
    lost += draw_ampdu_deliveries(mcs(frame % 16), 12.0 + frame % 25,
                                  decorr_end, n, grid, rng, delivered);
  }
  EXPECT_EQ(alloc_count() - before, 0u) << "loss path touched the heap";
  EXPECT_GT(lost, 0);
}

TEST(LatencyLossDrawTest, DrawsMatchPerMpduChainInOrder) {
  std::vector<bool> delivered;
  for (double decorr_end : {-0.0, 0.04}) {
    Rng rng(12);
    Rng ref_rng(12);
    const int lost =
        draw_ampdu_deliveries(mcs(13), 24.0, decorr_end, 45,
                              PerGrid::shared(1500, {}), rng, delivered);
    ASSERT_EQ(delivered.size(), 45u);
    AmpduPlan plan;
    plan.n_mpdus = 45;
    int ref_lost = 0;
    for (int i = 0; i < 45; ++i) {
      const double p = per_with_aging(mcs(13), 24.0, 1500,
                                      decorr_end * plan.mpdu_age_fraction(i));
      const bool ok = !ref_rng.chance(p);
      EXPECT_EQ(delivered[static_cast<std::size_t>(i)], ok) << i;
      ref_lost += !ok;
    }
    EXPECT_EQ(lost, ref_lost);
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "RNG streams diverged";
  }
}

LatencySimConfig quick_config() {
  LatencySimConfig cfg;
  cfg.duration_s = 5.0;
  cfg.offered_pps = 1500.0;
  return cfg;
}

TEST(LatencySimTest, DeliversTraffic) {
  Rng rng(1);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  AtherosRa ra;
  Rng sim_rng(2);
  const auto r = simulate_latency(s, ra, quick_config(), sim_rng);
  EXPECT_GT(r.delivered, 1000);
  EXPECT_GT(r.goodput_mbps, 5.0);
  EXPECT_EQ(static_cast<int>(r.latencies_s.size()), r.delivered);
}

TEST(LatencySimTest, LatenciesPositiveAndBounded) {
  Rng rng(3);
  Scenario s = make_scenario(MobilityClass::kMicro, rng);
  AtherosRa ra;
  Rng sim_rng(4);
  const auto r = simulate_latency(s, ra, quick_config(), sim_rng);
  ASSERT_FALSE(r.latencies_s.empty());
  EXPECT_GT(r.latencies_s.min(), 0.0);
  EXPECT_LT(r.latencies_s.median(), 1.0);  // not queue-collapsed
}

TEST(LatencySimTest, GoodputMatchesOfferedLoadWhenUnderCapacity) {
  Rng rng(5);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  AtherosRa ra;
  LatencySimConfig cfg = quick_config();
  cfg.offered_pps = 1000.0;  // 12 Mbps, far below capacity
  Rng sim_rng(6);
  const auto r = simulate_latency(s, ra, cfg, sim_rng);
  EXPECT_NEAR(r.goodput_mbps, 1000.0 * 1500 * 8 / 1e6, 1.5);
  EXPECT_EQ(r.dropped, 0);
}

TEST(LatencySimTest, EndOfRunAccountingConserves) {
  // Every CBR arrival in [0, duration_s) is accounted for exactly once.
  for (auto cls : {MobilityClass::kStatic, MobilityClass::kMacro}) {
    Rng rng(50 + static_cast<int>(cls));
    Scenario s = make_scenario(cls, rng);
    AtherosRa ra;
    const LatencySimConfig cfg = quick_config();
    Rng sim_rng(60 + static_cast<int>(cls));
    const auto r = simulate_latency(s, ra, cfg, sim_rng);
    // The analytic arrival count, accumulated the same way the sim steps
    // its arrival clock (FP accumulation and all).
    int expected_offered = 0;
    for (double a = 0.0; a < cfg.duration_s; a += 1.0 / cfg.offered_pps)
      ++expected_offered;
    EXPECT_EQ(r.offered, expected_offered);
    EXPECT_EQ(r.delivered + r.dropped + r.leftover, r.offered);
  }
}

TEST(LatencySimTest, NoDeliveryCountedPastTheHorizon) {
  // Regression: with a horizon shorter than a single frame exchange, the
  // first frame used to be acked past duration_s and still counted into
  // delivered_bytes (while goodput divides by duration_s). Now the final
  // frame is clamped: nothing is delivered, everything offered is leftover.
  Rng rng(70);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  AtherosRa ra;
  LatencySimConfig cfg = quick_config();
  cfg.duration_s = 1e-4;       // shorter than any A-MPDU exchange
  cfg.offered_pps = 1e6;       // 100 arrivals inside the horizon
  Rng sim_rng(71);
  const auto r = simulate_latency(s, ra, cfg, sim_rng);
  int expected_offered = 0;
  for (double a = 0.0; a < cfg.duration_s; a += 1.0 / cfg.offered_pps)
    ++expected_offered;
  EXPECT_EQ(r.offered, expected_offered);
  EXPECT_GT(r.offered, 90);
  EXPECT_EQ(r.delivered, 0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.leftover, r.offered);
  EXPECT_EQ(r.goodput_mbps, 0.0);
}

TEST(LatencySimTest, MobilityInflatesTailLatencyAtLongAggregation) {
  // The mechanism behind the §9 real-time concern: under macro-mobility,
  // 8 ms frames lose their tails, and retransmission head-of-line blocking
  // shows up in p95 latency relative to 2 ms frames.
  auto p95 = [](double limit) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      Rng rng(10 + i);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      AtherosRa ra;
      LatencySimConfig cfg = quick_config();
      cfg.aggregation.fixed_limit_s = limit;
      Rng sim_rng(20 + i);
      total += simulate_latency(s, ra, cfg, sim_rng).latencies_s.quantile(0.95);
    }
    return total / 3.0;
  };
  EXPECT_GT(p95(8e-3), p95(2e-3));
}

TEST(LatencySimTest, AdaptiveAggregationUsesMode) {
  Rng rng(30);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  AtherosRa ra = make_mobility_aware_atheros_ra();
  LatencySimConfig cfg = quick_config();
  cfg.aggregation.adaptive = true;
  Rng sim_rng(31);
  const auto r = simulate_latency(s, ra, cfg, sim_rng);
  EXPECT_GT(r.delivered, 500);
}

TEST(LatencySimTest, DeterministicGivenSeeds) {
  auto run = [] {
    Rng rng(40);
    Scenario s = make_scenario(MobilityClass::kMicro, rng);
    AtherosRa ra;
    Rng sim_rng(41);
    return simulate_latency(s, ra, quick_config(), sim_rng).latencies_s.median();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace mobiwlan
