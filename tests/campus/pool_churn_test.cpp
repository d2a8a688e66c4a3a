// pool_churn_test — the slab pool's recycling and allocation contracts on
// a small campus (fast enough for the default suite; the hour-long version
// lives in soak_test.cpp).
//
//   - SessionPool recycling: a released session's memory is handed back by
//     the next acquire (LIFO), reinitialized in place with zero heap
//     traffic once its internal buffers have grown;
//   - the split take/build path CampusSim runs: take (serial) claims a
//     fresh slot or grows a recycled session's buffers for its new dwell,
//     so the build — construction or reinit, then prime with a warmed
//     scratch, on pool workers — never touches the heap and lands on the
//     fresh-construction bits;
//   - a fresh slot is raw memory until its build: taken and dropped
//     unbuilt, it is neither recycled nor destroyed;
//   - slab growth tracks peak RESIDENCY, not total churn: a campus that
//     admits N sessions over a long window constructs far fewer than N
//     slab slots;
//   - a ramp-heavy campus, where most arrivals are fresh builds on pool
//     workers, computes the same pool size and aggregate at any worker
//     count;
//   - neither the fused hot phase nor the arrival builds allocate, on any
//     worker (metered per thread by the counting operator-new).
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "campus/session_pool.hpp"
#include "campus_test_util.hpp"
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

  // An empty free list: take claims a fresh slot, which holds nothing
  // until the build constructs the session in it.
  campus::SessionPool::Taken first = pool.take(cfg.min_dwell_epochs);
  ASSERT_EQ(first.get(), nullptr);
  EXPECT_EQ(pool.constructed(), 0u) << "take constructed the fresh slot";
  first.build(7, cfg.master_seed, map, cfg.session, 1, cfg.min_dwell_epochs)
      .prime(scratch, sample);  // warms the scratch
  EXPECT_EQ(pool.constructed(), 1u);
  EXPECT_EQ(first.get()->id(), 7u);
  campus::Session* raw = first.get();
  first.release().reset();  // recycles the slot

  // The recycled slot comes back holding its previous occupant; the
  // longest dwell needs a larger walk than the shortest one it last held,
  // which take must provide.
  const std::uint64_t dwell = cfg.max_dwell_epochs;
  campus::SessionPool::Taken taken = pool.take(dwell);
  ASSERT_EQ(taken.get(), raw) << "free list is LIFO";
  EXPECT_EQ(taken.get()->id(), 7u) << "take left init to the build step";

  const std::uint64_t before = alloc_count();
  taken.build(8, cfg.master_seed, map, cfg.session, 2, dwell)
      .prime(scratch, sample);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "recycled reinit + prime touched the heap";

  // The split path lands on the fresh-construction bits.
  campus::Session fresh(8, cfg.master_seed, map, cfg.session, 2, dwell);
  ChannelBatch::Scratch fresh_scratch;
  ChannelSample fresh_sample;
  fresh.prime(fresh_scratch, fresh_sample);
  EXPECT_EQ(taken.get()->stats().digest, fresh.stats().digest);
  EXPECT_EQ(taken.get()->depart_epoch(), fresh.depart_epoch());
  EXPECT_EQ(taken.get()->serving_ap(), fresh.serving_ap());
}

// A fresh slot is raw memory until its build runs the constructor. Dropped
// unbuilt (a skipped build, or one whose constructor threw), it must not
// reach the free list — the next take would hand out an object that was
// never constructed — nor be destroyed by ~SessionPool. The slot is first
// in its slab, where AddressSanitizer fills new memory with garbage, so a
// destructor run on it frees a wild pointer and fails the test there.
TEST(SessionPool, UnbuiltFreshSlotIsNeitherRecycledNorDestroyed) {
  campus::CampusConfig cfg = campus::campus_default_config();
  campus::CampusMap map(cfg.cols, cfg.rows, cfg.pitch_m);
  {
    campus::SessionPool pool(4);
    {
      campus::SessionPool::Taken dropped = pool.take(cfg.min_dwell_epochs);
      EXPECT_EQ(dropped.get(), nullptr);
    }
    EXPECT_EQ(pool.free_count(), 0u) << "an unbuilt slot was recycled";
    EXPECT_EQ(pool.constructed(), 0u) << "an unbuilt slot was counted";

    // The next arrival gets the next slot, built; only it is recycled.
    campus::SessionPtr next = pool.acquire(
        9, cfg.master_seed, map, cfg.session, 1, cfg.min_dwell_epochs);
    EXPECT_EQ(next->id(), 9u);
    EXPECT_EQ(pool.constructed(), 1u);
    next.reset();
    EXPECT_EQ(pool.free_count(), 1u);
    EXPECT_EQ(pool.take(cfg.min_dwell_epochs).get()->id(), 9u)
        << "the free list handed out something other than the built slot";
  }  // ~SessionPool destroys the one built session, not the hole
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

/// A campus whose arrivals all land in a short window: most of them are
/// fresh slots, constructed and primed on whichever worker claims their
/// build item.
campus::CampusConfig ramp_heavy_config(std::size_t jobs) {
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = jobs;
  cfg.n_sessions = 3000;
  cfg.arrival_window_epochs = 6;   // ~500 arrivals, ~16 build items, per epoch
  cfg.horizon_epochs = 46;         // window + max dwell
  return cfg;
}

TEST(CampusPoolChurn, RampHeavyCampusIsWorkerInvariant) {
  campus::CampusSim serial(ramp_heavy_config(1));
  serial.run();
  const campus_test::RunSummary reference = campus_test::summarize(serial);
  EXPECT_EQ(serial.arrived(), 3000u);
  EXPECT_GT(serial.pool_sessions(), 3000u / 2)
      << "the ramp should make most arrivals fresh builds";

  for (const std::size_t jobs : {2u, 4u}) {
    campus::CampusSim sim(ramp_heavy_config(jobs));
    sim.run();
    const std::string label = "jobs=" + std::to_string(jobs);
    EXPECT_EQ(sim.pool_sessions(), serial.pool_sessions()) << label;
    campus_test::expect_summaries_equal(reference, campus_test::summarize(sim),
                                        label.c_str());
  }
}

TEST(CampusPoolChurn, ArrivalBuildsAllocateNothingAtDefaultDwell) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  // Fresh and recycled builds on four worker slots, each metered on the
  // thread that ran it.
  campus::CampusSim sim(ramp_heavy_config(4));
  sim.run();
  EXPECT_EQ(sim.arrived(), 3000u);
  EXPECT_EQ(sim.arrival_build_allocs(), 0u) << "an arrival build allocated";
  EXPECT_EQ(sim.hot_phase_allocs(), 0u) << "hot phase allocated";
}

}  // namespace
}  // namespace mobiwlan
