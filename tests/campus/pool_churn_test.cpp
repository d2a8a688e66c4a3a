// pool_churn_test — the slab pool's recycling and allocation contracts on
// a small campus (fast enough for the default suite; the hour-long version
// lives in soak_test.cpp).
//
//   - SessionPool recycling: a released session's memory is handed back by
//     the next acquire (LIFO), reinitialized in place with zero heap
//     traffic once its internal buffers have grown;
//   - the split take/build path CampusSim runs: take (serial) grows a
//     recycled session's buffers for its new dwell, so the build — reinit
//     + prime with a warmed scratch, which runs on pool workers — never
//     touches the heap and lands on the fresh-construction bits;
//   - slab growth tracks peak RESIDENCY, not total churn: a campus that
//     admits N sessions over a long window constructs far fewer than N
//     slab slots;
//   - the fused hot phase never allocates, on any worker (metered per
//     thread by the counting operator-new).
#include <cstdint>

#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "campus/session_pool.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

TEST(SessionPool, RecycledAcquireReusesMemoryWithoutAllocating) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";

  campus::CampusConfig cfg = campus::campus_default_config();
  campus::CampusMap map(cfg.cols, cfg.rows, cfg.pitch_m);
  campus::SessionPool pool(64);

  campus::SessionPtr first =
      pool.acquire(7, cfg.master_seed, map, cfg.session, 1, 10);
  campus::Session* raw = first.get();
  first.reset();  // releases to the free list, stays constructed
  EXPECT_EQ(pool.free_count(), 1u);

  const std::uint64_t before = alloc_count();
  campus::SessionPtr second =
      pool.acquire(8, cfg.master_seed, map, cfg.session, 2, 12);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "recycled acquire touched the heap";
  EXPECT_EQ(second.get(), raw) << "free list is LIFO; expected slot reuse";
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.constructed(), 1u);

  // The recycled session is a fully re-drawn id-8 session, not a stale
  // id-7: reinit re-derives everything id-determined.
  EXPECT_EQ(second->id(), 8u);
  EXPECT_EQ(second->stats().arrival_epoch, 2u);
  EXPECT_EQ(second->depart_epoch(), 14u);
}

TEST(SessionPool, TakeLeavesRecycledBuildAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";

  campus::CampusConfig cfg = campus::campus_default_config();
  campus::CampusMap map(cfg.cols, cfg.rows, cfg.pitch_m);
  campus::SessionPool pool(64);
  ChannelBatch::Scratch scratch;
  ChannelSample sample;

  // An empty free list: take constructs in the slab, ready to prime.
  campus::SessionPool::Taken first = pool.take(
      7, cfg.master_seed, map, cfg.session, 1, cfg.min_dwell_epochs);
  ASSERT_FALSE(first.stale);
  EXPECT_EQ(first.session->id(), 7u);
  first.session->prime(scratch, sample);  // warms the scratch
  campus::Session* raw = first.session.get();
  first.session.reset();

  // The recycled slot comes back stale; the longest dwell needs a larger
  // walk than the shortest one it last held, which take must provide.
  const std::uint64_t dwell = cfg.max_dwell_epochs;
  campus::SessionPool::Taken taken =
      pool.take(8, cfg.master_seed, map, cfg.session, 2, dwell);
  ASSERT_TRUE(taken.stale);
  EXPECT_EQ(taken.session.get(), raw) << "free list is LIFO";
  EXPECT_EQ(taken.session->id(), 7u) << "take left init to the build step";

  const std::uint64_t before = alloc_count();
  taken.session->reinit(8, 2, dwell);
  taken.session->prime(scratch, sample);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "recycled reinit + prime touched the heap";

  // The split path lands on the fresh-construction bits.
  campus::Session fresh(8, cfg.master_seed, map, cfg.session, 2, dwell);
  ChannelBatch::Scratch fresh_scratch;
  ChannelSample fresh_sample;
  fresh.prime(fresh_scratch, fresh_sample);
  EXPECT_EQ(taken.session->stats().digest, fresh.stats().digest);
  EXPECT_EQ(taken.session->depart_epoch(), fresh.depart_epoch());
  EXPECT_EQ(taken.session->serving_ap(), fresh.serving_ap());
}

TEST(CampusPoolChurn, SlabGrowthTracksPeakResidencyAndHotPhaseGoesQuiet) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";

  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = 2;  // the meter is per worker: passes on pool threads count
  cfg.n_sessions = 4000;
  cfg.arrival_window_epochs = 120;
  cfg.horizon_epochs = 170;  // window + max dwell (40) + settling

  campus::CampusSim sim(cfg);

  // Snapshot the meter a little after the arrival window closes: occupancy
  // only shrinks from there, so batch/slab high-water marks are behind us.
  const std::uint64_t steady_from = cfg.arrival_window_epochs + 8;
  std::uint64_t steady_allocs = 0;
  std::uint64_t peak_active = 0;
  while (sim.epoch() < cfg.horizon_epochs) {
    sim.step_epoch();
    if (sim.active() > peak_active) peak_active = sim.active();
    if (sim.epoch() == steady_from) steady_allocs = sim.hot_phase_allocs();
  }

  EXPECT_EQ(sim.arrived(), cfg.n_sessions);
  EXPECT_EQ(sim.departed(), cfg.n_sessions);
  EXPECT_EQ(sim.active(), 0u);

  // Churn forced heavy recycling: the pool never built anywhere near one
  // slot per admitted session. (Slabs round the peak up by less than one
  // slab; peak_active is sampled at epoch ends, so allow that slack.)
  EXPECT_LT(sim.pool_sessions(), cfg.n_sessions / 2);
  EXPECT_GE(sim.pool_sessions(), peak_active);

  // And the fused phase never allocated, not even during the ramp: the
  // sessions are inline, the shard scratch is warmed at construction and
  // the shard vectors grow in the serial tail.
  EXPECT_EQ(sim.hot_phase_allocs(), steady_allocs)
      << "hot phase allocated after the arrival ramp ended";
  EXPECT_EQ(sim.hot_phase_allocs(), 0u) << "hot phase allocated";
}

}  // namespace
}  // namespace mobiwlan
