// The shard-invariance contract at unit-test scale: the same campus
// scenario run under different shard counts and different worker counts
// produces bitwise-identical aggregates — including sessions handed across
// shard boundaries mid-classifier-window, whose hold-then-decay state must
// travel with them. The 1024-AP / 100k-session version of this contract is
// gated by `mobiwlan-bench --suite campus` (`ctest -L campus`); this file
// keeps the property cheap to run and easy to bisect.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "campus_test_util.hpp"
#include "core/mobility_mode.hpp"

namespace mobiwlan {
namespace {

using campus_test::RunSummary;
using campus_test::expect_summaries_equal;
using campus_test::summarize;

campus::CampusConfig base_config() {
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 16;
  cfg.rows = 16;
  cfg.shards = 1;
  cfg.jobs = 1;
  cfg.n_sessions = 2000;
  cfg.arrival_window_epochs = 24;
  cfg.min_dwell_epochs = 4;
  cfg.mean_extra_dwell_epochs = 8.0;
  cfg.max_dwell_epochs = 24;
  cfg.horizon_epochs = 50;  // last departure: 24 + 24 = 48
  return cfg;
}

struct RunResult {
  RunSummary summary;
  std::uint64_t handovers_sent;
  std::uint64_t deferred;
  std::size_t pool_sessions;
};

RunResult run(campus::CampusConfig cfg, std::size_t shards, std::size_t jobs) {
  cfg.shards = shards;
  cfg.jobs = jobs;
  campus::CampusSim sim(cfg);
  sim.run();
  return {summarize(sim), sim.handovers_sent(), sim.deferred_handovers(),
          sim.pool_sessions()};
}

TEST(ShardInvariance, AggregateIdenticalAcrossShardCounts) {
  const campus::CampusConfig cfg = base_config();
  const RunResult one = run(cfg, 1, 1);
  const RunResult four = run(cfg, 4, 1);
  const RunResult sixteen = run(cfg, 16, 1);

  // The single shard never sends a handover; the partitioned runs must —
  // otherwise this test compares runs that never exercised the mailbox.
  EXPECT_EQ(one.handovers_sent, 0u);
  EXPECT_GT(four.handovers_sent, 0u);
  EXPECT_GT(sixteen.handovers_sent, 0u);

  expect_summaries_equal(one.summary, four.summary, "1 vs 4 shards");
  expect_summaries_equal(one.summary, sixteen.summary, "1 vs 16 shards");
}

TEST(ShardInvariance, AggregateIdenticalAcrossWorkerCounts) {
  campus::CampusConfig cfg = base_config();
  const RunResult serial = run(cfg, 8, 1);
  const RunResult pooled4 = run(cfg, 8, 4);
  const RunResult pooled8 = run(cfg, 8, 8);

  expect_summaries_equal(serial.summary, pooled4.summary, "jobs 1 vs 4");
  expect_summaries_equal(serial.summary, pooled8.summary, "jobs 1 vs 8");
  // Worker count may not even change the transport counters: who steps a
  // shard is scheduling, what the shard sends is not.
  EXPECT_EQ(serial.handovers_sent, pooled8.handovers_sent);
  EXPECT_EQ(serial.deferred, pooled8.deferred);
}

TEST(ShardInvariance, ArrivalHeavyEpochsIdenticalAcrossWorkerCounts) {
  // ~1000 arrivals per epoch: each epoch's arrival builds split into ~32
  // chunks, more than any shard count below, and short dwells free enough
  // sessions by epoch 3 that most later arrivals are recycled — built on
  // pool workers concurrently with the shard passes.
  campus::CampusConfig cfg = base_config();
  cfg.n_sessions = 4000;
  cfg.arrival_window_epochs = 4;
  cfg.min_dwell_epochs = 2;
  cfg.mean_extra_dwell_epochs = 1.0;
  cfg.max_dwell_epochs = 6;
  cfg.horizon_epochs = 12;

  const RunResult reference = run(cfg, 1, 1);
  EXPECT_LT(reference.pool_sessions, cfg.n_sessions * 3 / 4)
      << "too few arrivals recycled a pooled session";
  for (const std::size_t shards : {1u, 4u, 16u}) {
    const RunResult serial = run(cfg, shards, 1);
    expect_summaries_equal(reference.summary, serial.summary,
                           "1 shard vs partitioned");
    EXPECT_EQ(serial.pool_sessions, reference.pool_sessions);
    for (const std::size_t jobs : {2u, 4u, 8u}) {
      const RunResult pooled = run(cfg, shards, jobs);
      const std::string label = std::to_string(shards) + " shards, jobs 1 vs " +
                                std::to_string(jobs);
      expect_summaries_equal(serial.summary, pooled.summary, label.c_str());
      EXPECT_EQ(serial.handovers_sent, pooled.handovers_sent) << label;
      EXPECT_EQ(serial.deferred, pooled.deferred) << label;
      EXPECT_EQ(serial.pool_sessions, pooled.pool_sessions) << label;
    }
  }
}

TEST(ShardInvariance, BoundaryCrossingMidWindowCarriesClassifierState) {
  // Long-dwelling, wide-wandering sessions on narrow two-row slabs: most
  // sessions cross a shard boundary at some arbitrary point inside their
  // classifier similarity window, with hold-then-decay timers running.
  // Handover moves the Session object wholesale, so the sharded run must
  // reproduce the unsharded digests exactly; if any classifier state
  // (similarity anchor, hold timer, decayed mode) were re-initialized on
  // transfer, the mode-dwell counters and the step digests would diverge.
  campus::CampusConfig cfg = base_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.n_sessions = 600;
  cfg.min_dwell_epochs = 8;
  cfg.mean_extra_dwell_epochs = 10.0;
  cfg.max_dwell_epochs = 30;
  cfg.arrival_window_epochs = 16;
  cfg.horizon_epochs = 50;
  cfg.session.walk_wander_m = 60.0;

  const RunResult one = run(cfg, 1, 1);
  const RunResult four = run(cfg, 4, 1);

  ASSERT_GT(four.handovers_sent, 0u) << "no session crossed a boundary";
  // The classifier actually held/decayed through macro modes in this
  // scenario — the state whose transfer the test is about.
  std::uint64_t macro_steps = 0;
  for (std::size_t m = static_cast<std::size_t>(MobilityMode::kMacroToward);
       m < campus::kModeCount; ++m)
    macro_steps += four.summary.mode_steps[m];
  EXPECT_GT(macro_steps, 0u);

  expect_summaries_equal(one.summary, four.summary, "boundary crossing");
}

}  // namespace
}  // namespace mobiwlan
