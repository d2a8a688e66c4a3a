// CampusSim mechanics on small floor plans: session conservation through
// churn, the map/partition geometry, spread of sessions across shards, the
// back-pressure contract (a full mailbox lane defers a handover without
// changing any observable), the config checks at construction, and the
// PER grid the sessions' MAC steps share.
#include "campus/campus.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "campus_test_util.hpp"

namespace mobiwlan {
namespace {

using campus_test::expect_summaries_equal;
using campus_test::summarize;

// 8x8 grid / 4 shards absorbing 1500 sessions: small enough for a unit
// test, busy enough that every mechanism (arrival bursts, roaming,
// cross-shard handover, departures) actually fires.
campus::CampusConfig small_config() {
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = 1;
  cfg.n_sessions = 1500;
  cfg.arrival_window_epochs = 30;
  cfg.min_dwell_epochs = 4;
  cfg.mean_extra_dwell_epochs = 6.0;
  cfg.max_dwell_epochs = 24;
  cfg.horizon_epochs = 60;  // last possible departure: 30 + 24 = 54
  return cfg;
}

TEST(CampusMap, NearestApRoundTripsAndPartitionCoversEveryShard) {
  const campus::CampusMap map(8, 8, 30.0);
  for (std::size_t ap = 0; ap < map.n_aps(); ++ap)
    EXPECT_EQ(map.nearest_ap(map.ap_position(ap)), ap);

  for (std::size_t shards : {1u, 3u, 4u, 16u}) {
    std::vector<std::size_t> per_shard(shards, 0);
    std::size_t prev = 0;
    for (std::size_t ap = 0; ap < map.n_aps(); ++ap) {
      const std::size_t s = map.shard_of_ap(ap, shards);
      ASSERT_LT(s, shards);
      ASSERT_GE(s, prev) << "shards must be contiguous index bands";
      prev = s;
      ++per_shard[s];
    }
    std::size_t lo = map.n_aps(), hi = 0;
    for (std::size_t n : per_shard) {
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_GE(lo, std::size_t{1}) << shards << " shards";
    EXPECT_LE(hi - lo, std::size_t{1}) << shards << " shards";
  }
}

TEST(CampusSim, SessionConservationHoldsEveryEpoch) {
  campus::CampusSim sim(small_config());
  while (sim.epoch() < sim.config().horizon_epochs) {
    sim.step_epoch();
    ASSERT_EQ(sim.arrived(), sim.departed() + sim.active())
        << "epoch " << sim.epoch();
  }
  EXPECT_EQ(sim.arrived(), sim.config().n_sessions);
  EXPECT_EQ(sim.departed(), sim.config().n_sessions);
  EXPECT_EQ(sim.active(), 0u);
  // Every departed session folded exactly once.
  EXPECT_EQ(sim.aggregate().sessions, sim.config().n_sessions);
  EXPECT_EQ(sim.aggregate().dwell_hist.total(), sim.config().n_sessions);
}

TEST(CampusSim, SessionsSpreadAcrossShardsMidRun) {
  campus::CampusSim sim(small_config());
  while (sim.epoch() < 20) sim.step_epoch();

  std::size_t populated = 0, total = 0;
  for (std::size_t s = 0; s < sim.config().shards; ++s) {
    if (sim.shard_session_count(s) > 0) ++populated;
    total += sim.shard_session_count(s);
  }
  EXPECT_EQ(total, sim.active());
  // Homes are uniform over the floor plan, so every slab hosts someone.
  EXPECT_EQ(populated, sim.config().shards);
}

TEST(CampusSim, RepeatedConstructionIsDeterministic) {
  campus::CampusSim a(small_config());
  campus::CampusSim b(small_config());
  a.run();
  b.run();
  expect_summaries_equal(summarize(a), summarize(b), "rerun");
  EXPECT_EQ(a.handovers_sent(), b.handovers_sent());
  EXPECT_EQ(a.deferred_handovers(), b.deferred_handovers());
}

TEST(CampusSim, MailboxBackpressureIsObservablyInvisible) {
  // A wide-wandering population on a 2-shard split funnels every crossing
  // through two lanes; with capacity 1 some handovers must defer. The
  // determinism contract says a deferred session steps one more epoch at
  // the source and computes the same observables — so the starved run must
  // match the roomy run bitwise everywhere except the deferral counter.
  campus::CampusConfig roomy = small_config();
  roomy.shards = 2;
  roomy.n_sessions = 3000;
  roomy.session.walk_wander_m = 60.0;

  campus::CampusConfig starved = roomy;
  starved.mailbox_lane_capacity = 1;

  campus::CampusSim a(roomy);
  campus::CampusSim b(starved);
  a.run();
  b.run();

  ASSERT_GT(a.handovers_sent(), 0u) << "scenario produced no crossings";
  EXPECT_EQ(a.deferred_handovers(), 0u);
  EXPECT_GT(b.deferred_handovers(), 0u)
      << "capacity-1 lanes never filled; the back-pressure path went untested";
  EXPECT_LE(b.mailbox_max_depth(), std::size_t{1});
  expect_summaries_equal(summarize(a), summarize(b), "backpressure");
  // Every crossing still happens — just possibly an epoch later.
  EXPECT_EQ(a.aggregate().ap_handovers, b.aggregate().ap_handovers);
}

/// Constructs a CampusSim from `cfg`, expecting a CampusConfigError with
/// `code`.
void expect_rejected(const campus::CampusConfig& cfg,
                     campus::CampusConfigError::Code code) {
  try {
    campus::CampusSim sim(cfg);
    ADD_FAILURE() << "config was accepted";
  } catch (const campus::CampusConfigError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(CampusConfigValidation, RejectsEmptyGrid) {
  // shard_of_ap divides by cols * rows: an empty grid must never reach it.
  campus::CampusConfig cfg = small_config();
  cfg.cols = 0;
  expect_rejected(cfg, campus::CampusConfigError::Code::kEmptyGrid);
  cfg = small_config();
  cfg.rows = 0;
  expect_rejected(cfg, campus::CampusConfigError::Code::kEmptyGrid);
}

TEST(CampusConfigValidation, RejectsHorizonShorterThanWindowPlusMaxDwell) {
  campus::CampusConfig cfg = small_config();  // window 30, max dwell 24
  cfg.horizon_epochs = 53;
  expect_rejected(cfg, campus::CampusConfigError::Code::kHorizonTooShort);
  cfg.max_dwell_epochs = ~std::uint64_t{0};  // the sum would overflow
  expect_rejected(cfg, campus::CampusConfigError::Code::kHorizonTooShort);

  // The bound itself is accepted, and every session reports by then.
  cfg = small_config();
  cfg.horizon_epochs = 54;
  campus::CampusSim sim(cfg);
  sim.run();
  EXPECT_EQ(sim.arrived(), cfg.n_sessions);
  EXPECT_EQ(sim.departed(), sim.arrived());
  EXPECT_EQ(sim.active(), 0u);
}

TEST(CampusConfigValidation, RejectsArrivalWindowAboveIntMax) {
  // The arrival draw is uniform_int(1, window): a wider window would narrow
  // and index past the arrival buckets. The horizon is kept long enough
  // that only the window itself is wrong.
  campus::CampusConfig cfg = small_config();
  cfg.arrival_window_epochs =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;
  cfg.horizon_epochs = ~std::uint64_t{0};
  expect_rejected(cfg, campus::CampusConfigError::Code::kArrivalWindowTooLong);
}

TEST(CampusConfigValidation, RejectsNegativeOrNonFiniteExtraDwell) {
  for (const double mean : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    campus::CampusConfig cfg = small_config();
    cfg.mean_extra_dwell_epochs = mean;
    expect_rejected(cfg, campus::CampusConfigError::Code::kBadExtraDwell);
  }
  campus::CampusConfig cfg = small_config();
  cfg.mean_extra_dwell_epochs = 0.0;  // every session dwells exactly min
  campus::CampusSim sim(cfg);
  sim.run();
  EXPECT_EQ(sim.aggregate().sum_dwell_epochs,
            static_cast<double>(cfg.min_dwell_epochs * cfg.n_sessions));
}

TEST(CampusConfigValidation, RejectsMinDwellAboveMaxDwell) {
  campus::CampusConfig cfg = small_config();  // max dwell 24
  cfg.min_dwell_epochs = 25;
  expect_rejected(cfg, campus::CampusConfigError::Code::kDwellRangeInverted);
}

TEST(CampusConfigValidation, RejectsNonPositiveOrNonFinitePitch) {
  // A NaN pitch would reach nearest_ap's size_t cast.
  for (const double pitch : {0.0, -30.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    campus::CampusConfig cfg = small_config();
    cfg.pitch_m = pitch;
    expect_rejected(cfg, campus::CampusConfigError::Code::kBadPitch);
  }
}

TEST(CampusConfigValidation, RejectsNonPositiveOrNonFiniteTick) {
  for (const double tick : {0.0, -0.5,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    campus::CampusConfig cfg = small_config();
    cfg.session.tick_s = tick;
    expect_rejected(cfg, campus::CampusConfigError::Code::kBadTick);
  }
}

TEST(CampusConfigValidation, RejectsZeroChannelDimension) {
  // The channel engine sizes its planes from these: a zero n_tx ran
  // silently over empty CSI, and zero subcarriers threw an untyped
  // dimension mismatch from inside the classifier.
  using Code = campus::CampusConfigError::Code;
  campus::CampusConfig cfg = small_config();
  cfg.session.channel.n_tx = 0;
  expect_rejected(cfg, Code::kBadChannelShape);
  cfg = small_config();
  cfg.session.channel.n_rx = 0;
  expect_rejected(cfg, Code::kBadChannelShape);
  cfg = small_config();
  cfg.session.channel.n_subcarriers = 0;
  expect_rejected(cfg, Code::kBadChannelShape);
}

TEST(CampusConfigValidation, RejectsBadMacExchange) {
  // An empty exchange added 0/0 (NaN) to sum_goodput_mbps, and an empty
  // payload priced every MPDU at PER 0, so nothing was ever lost.
  using Code = campus::CampusConfigError::Code;
  campus::CampusConfig cfg = small_config();
  cfg.session.mpdus_per_exchange = 0;
  expect_rejected(cfg, Code::kBadMacExchange);
  cfg = small_config();
  cfg.session.mpdus_while_probing = -1;
  expect_rejected(cfg, Code::kBadMacExchange);
  cfg = small_config();
  cfg.session.mpdu_payload_bytes = 0;
  expect_rejected(cfg, Code::kBadMacExchange);
}

TEST(CampusPerGrid, ConstructionBuildsNoRowAndRunsBuildOnlyUsedRows) {
  // Construction warms the MCS table and rate ladders without a MAC step,
  // so a fresh campus has built no PER row; a run builds only the
  // rate-ladder rows it reaches. Rows outlive a campus in the shared grid,
  // so this campus uses a payload no other test of this binary uses.
  campus::CampusConfig cfg = small_config();
  cfg.session.mpdu_payload_bytes = 1473;
  campus::CampusSim sim(cfg);
  EXPECT_EQ(&sim.per_grid(), &PerGrid::shared(1473, {}));
  EXPECT_EQ(sim.per_grid().rows_built(), 0);
  EXPECT_EQ(sim.per_grid().payload_bytes(),
            sim.config().session.mpdu_payload_bytes);
  sim.run();
  EXPECT_GT(sim.per_grid().rows_built(), 0);
  EXPECT_LE(sim.per_grid().rows_built(),
            static_cast<int>(atheros_rate_ladder(2).size()));
}

TEST(CampusPerGrid, StandaloneMacStepUsesTheDefaultPayloadGrid) {
  // A session stepped outside a CampusSim draws exactly what it draws
  // against its own grid, and a session of another payload decides
  // against that payload's shared grid.
  const campus::CampusConfig cfg = small_config();
  const campus::CampusMap map(cfg.cols, cfg.rows, cfg.pitch_m);
  const PerGrid own(cfg.session.mpdu_payload_bytes);
  campus::Session a(7, cfg.master_seed, map, cfg.session, 1, 40);
  campus::Session b(7, cfg.master_seed, map, cfg.session, 1, 40);
  ChannelBatch::Scratch scratch;
  ChannelSample sample;
  a.prime(scratch, sample);
  b.prime(scratch, sample);
  for (std::uint64_t e = 2; e <= 40; ++e) {
    const double t = static_cast<double>(e) * cfg.session.tick_s;
    ChannelBatch::sample_link(*a.channel(), t, sample, scratch);
    a.observe_step(e, sample);
    a.mac_step(e, sample);
    b.observe_step(e, sample);
    b.mac_step(e, sample, own);
  }
  EXPECT_EQ(a.stats().mac_steps, 39u);
  EXPECT_EQ(a.stats().mpdus_failed, b.stats().mpdus_failed);
  EXPECT_EQ(a.stats().digest, b.stats().digest);

  campus::SessionParams other = cfg.session;
  other.mpdu_payload_bytes = 1000;
  campus::Session c(7, cfg.master_seed, map, other, 1, 40);
  campus::Session d(7, cfg.master_seed, map, other, 1, 40);
  c.prime(scratch, sample);
  d.prime(scratch, sample);
  for (std::uint64_t e = 2; e <= 40; ++e) {
    const double t = static_cast<double>(e) * other.tick_s;
    ChannelBatch::sample_link(*c.channel(), t, sample, scratch);
    c.observe_step(e, sample);
    c.mac_step(e, sample);
    d.observe_step(e, sample);
    d.mac_step(e, sample, PerGrid::shared(1000, {}));
  }
  EXPECT_EQ(c.stats().mac_steps, 39u);
  EXPECT_EQ(c.stats().mpdus_failed, d.stats().mpdus_failed);
  EXPECT_EQ(c.stats().digest, d.stats().digest);
}

}  // namespace
}  // namespace mobiwlan
