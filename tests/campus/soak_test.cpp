// Campus soak: one simulated hour of continuous client churn on a reduced
// floor plan (label `soak` — excluded from the tier1 seed suite).
//
// What an hour of churn must prove that the short runs cannot:
//   - session conservation (arrived == departed + active) holds at every
//     checkpoint, and every session folds into the aggregate exactly once;
//   - the shard step loop reaches an allocation-free steady state: once the
//     arrival ramp ends, the hot phase (batched sample + step) never touches
//     the heap again (metered by the linked counting operator-new);
//   - mailbox depth stays bounded far below the lane capacity and no
//     handover is ever deferred at the default capacity.
#include <cstdint>

#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

TEST(CampusSoak, OneSimulatedHourOfChurn) {
  ASSERT_TRUE(alloc_hook_active())
      << "link mobiwlan_alloc_hook or the steady-state assertion is vacuous";

  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = 1;
  const auto hour_epochs =
      static_cast<std::uint64_t>(3600.0 / cfg.session.tick_s);  // 7200
  cfg.n_sessions = 20000;
  cfg.arrival_window_epochs = hour_epochs - 1200;
  cfg.min_dwell_epochs = 8;
  cfg.mean_extra_dwell_epochs = 24.0;
  cfg.max_dwell_epochs = 1000;  // window + max dwell < horizon
  cfg.horizon_epochs = hour_epochs;

  campus::CampusSim sim(cfg);

  // Occupancy can only shrink once arrivals stop, so the per-shard batch
  // high-water marks are behind us shortly after the window closes; a
  // late cross-shard handover could still nudge one shard past its own
  // peak, hence the settling margin before the steady-state snapshot.
  const std::uint64_t steady_from = cfg.arrival_window_epochs + 64;
  std::uint64_t steady_allocs = 0;
  std::uint64_t last_arrived = 0;

  while (sim.epoch() < cfg.horizon_epochs) {
    sim.step_epoch();
    if (sim.epoch() == steady_from) steady_allocs = sim.hot_phase_allocs();
    if (sim.epoch() % 256 == 0 || sim.epoch() == cfg.horizon_epochs) {
      ASSERT_EQ(sim.arrived(), sim.departed() + sim.active())
          << "conservation broken at epoch " << sim.epoch();
      ASSERT_GE(sim.arrived(), last_arrived);
      last_arrived = sim.arrived();
    }
  }

  // Churn completed: everyone arrived, everyone left, everyone counted once.
  EXPECT_EQ(sim.arrived(), cfg.n_sessions);
  EXPECT_EQ(sim.departed(), cfg.n_sessions);
  EXPECT_EQ(sim.active(), 0u);
  EXPECT_EQ(sim.aggregate().sessions, cfg.n_sessions);
  EXPECT_EQ(sim.aggregate().dwell_hist.total(), cfg.n_sessions);

  // The walk actually moved people between slabs during the hour.
  EXPECT_GT(sim.handovers_sent(), 0u);

  // Zero steady-state allocations in the shard step loop.
  EXPECT_EQ(sim.hot_phase_allocs(), steady_allocs)
      << "hot phase allocated after the arrival ramp ended";

  // Mailbox health: depth bounded well under the lane capacity, nothing
  // ever deferred at the default capacity.
  EXPECT_EQ(sim.deferred_handovers(), 0u);
  EXPECT_LE(sim.mailbox_max_depth(), cfg.mailbox_lane_capacity / 4);
}

}  // namespace
}  // namespace mobiwlan
