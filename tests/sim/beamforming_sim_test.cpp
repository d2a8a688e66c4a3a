// Tests for the SU beamforming and MU-MIMO emulators (§6).
#include "sim/beamforming_sim.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

namespace mobiwlan {
namespace {

BeamformingSimConfig short_config() {
  BeamformingSimConfig cfg;
  cfg.duration_s = 5.0;
  return cfg;
}

ScenarioOptions single_antenna_options() {
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  return opt;
}

TEST(SuBeamformingSimTest, ProducesThroughputAndGain) {
  Rng rng(1);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  const auto r = simulate_su_beamforming(s, short_config());
  EXPECT_GT(r.throughput_mbps, 5.0);
  EXPECT_GT(r.mean_gain_db, 2.0);  // static client: near-full array gain
  EXPECT_GE(r.overhead_fraction, 0.0);
  EXPECT_LT(r.overhead_fraction, 0.5);
}

TEST(SuBeamformingSimTest, ShortPeriodMoreOverhead) {
  Rng rng1(3);
  Rng rng2(3);
  Scenario a = make_scenario(MobilityClass::kStatic, rng1);
  Scenario b = make_scenario(MobilityClass::kStatic, rng2);
  BeamformingSimConfig fast = short_config();
  fast.fixed_period_s = 2e-3;
  BeamformingSimConfig slow = short_config();
  slow.fixed_period_s = 50e-3;
  const auto fast_result = simulate_su_beamforming(a, fast);
  const auto slow_result = simulate_su_beamforming(b, slow);
  EXPECT_GT(fast_result.overhead_fraction, slow_result.overhead_fraction * 5.0);
}

TEST(SuBeamformingSimTest, StaticClientPrefersLongPeriod) {
  // Fig. 11(a) left edge: frequent feedback only adds overhead.
  auto run = [](double period) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      Rng rng(10 + i);
      Scenario s = make_scenario(MobilityClass::kStatic, rng);
      BeamformingSimConfig cfg;
      cfg.duration_s = 5.0;
      cfg.fixed_period_s = period;
      total += simulate_su_beamforming(s, cfg).throughput_mbps;
    }
    return total;
  };
  EXPECT_GT(run(200e-3), run(2e-3));
}

TEST(SuBeamformingSimTest, MacroClientGainDecaysWithPeriod) {
  auto mean_gain = [](double period) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      Rng rng(30 + i);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      BeamformingSimConfig cfg;
      cfg.duration_s = 5.0;
      cfg.fixed_period_s = period;
      total += simulate_su_beamforming(s, cfg).mean_gain_db;
    }
    return total / 3.0;
  };
  EXPECT_GT(mean_gain(2e-3), mean_gain(200e-3) + 1.0);
}

TEST(SuBeamformingSimTest, AdaptivePeriodRuns) {
  Rng rng(5);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  EXPECT_GT(simulate_su_beamforming(s, cfg).throughput_mbps, 1.0);
}

TEST(SuBeamformingSimTest, AdaptivePeriodUsesTheSuBeamformingColumn) {
  // Table 2 gives macro clients a 5 ms SU-beamforming period (2 ms is the
  // MU-MIMO column). Count the sounding exchanges of an adaptive SU run over
  // a macro link from its recording: none may come sooner than 5 ms after
  // the previous one, the 5 ms cadence must carry most of the run, and the
  // overhead must be exactly that count of exchanges.
  Rng rng(5);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  BeamformingSimConfig cfg;
  cfg.duration_s = 10.0;
  cfg.adaptive_period = true;
  const std::string path = ::testing::TempDir() + "/bf_su_period.mwtr";
  SuBeamformingResult r;
  {
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, s.channel->config()));
    trace::RecordingSource rec(live, writer);
    r = simulate_su_beamforming(rec, cfg);
    writer.close();
  }
  std::vector<double> sounding_t;
  {
    trace::TraceReader reader(path);
    trace::TraceRecord record;
    while (reader.next(record))
      if (record.kind == trace::StreamKind::kCsiFeedback)
        sounding_t.push_back(record.t);
  }
  std::remove(path.c_str());

  ASSERT_GT(sounding_t.size(), 1u);
  int too_soon = 0;
  int at_macro_cadence = 0;
  for (std::size_t i = 1; i < sounding_t.size(); ++i) {
    const double gap = sounding_t[i] - sounding_t[i - 1];
    if (gap < 5e-3 - 1e-9) ++too_soon;
    else if (gap < 5e-3 + cfg.slot_s) ++at_macro_cadence;
  }
  EXPECT_EQ(too_soon, 0);
  // A slot grid of 2 ms turns the 5 ms period into one exchange per 6 ms.
  EXPECT_GT(at_macro_cadence, static_cast<int>(0.5 * cfg.duration_s / 6e-3));
  const double n = static_cast<double>(sounding_t.size());
  EXPECT_NEAR(r.overhead_fraction,
              n * feedback_exchange_airtime_s(cfg.feedback) / cfg.duration_s,
              1e-12);
}

TEST(MuMimoSimTest, ServesThreeClients) {
  Rng rng(7);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  const auto r = simulate_mu_mimo({&a, &b, &c}, short_config());
  ASSERT_EQ(r.per_client_mbps.size(), 3u);
  for (double mbps : r.per_client_mbps) EXPECT_GT(mbps, 0.5);
  EXPECT_NEAR(r.total_mbps,
              r.per_client_mbps[0] + r.per_client_mbps[1] + r.per_client_mbps[2],
              1e-9);
}

TEST(MuMimoSimTest, StaleFeedbackHurtsMobileClientMost) {
  // Fig. 12(a): with a long fixed period, the macro client's share collapses
  // relative to a short period, while static clients barely move.
  auto run = [&](double period) {
    Rng rng(9);
    const auto opt = single_antenna_options();
    Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
    Scenario b = make_scenario(MobilityClass::kStatic, rng, opt);
    Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
    BeamformingSimConfig cfg;
    cfg.duration_s = 5.0;
    cfg.fixed_period_s = period;
    return simulate_mu_mimo({&a, &b, &c}, cfg);
  };
  const auto fast = run(5e-3);
  const auto slow = run(100e-3);
  const double macro_ratio = slow.per_client_mbps[2] /
                             std::max(fast.per_client_mbps[2], 1e-9);
  EXPECT_LT(macro_ratio, 0.85);
}

TEST(MuMimoSimTest, AdaptivePeriodRuns) {
  Rng rng(11);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  const auto r = simulate_mu_mimo({&a, &b, &c}, cfg);
  EXPECT_GT(r.total_mbps, 1.0);
}

// ---- §6.2 record once, replay through TraceSource -------------------------

/// A live link teed into an MWTR recording at `path`.
struct Recorder {
  Recorder(Scenario& s, const std::string& path)
      : live(*s.channel),
        writer(path, trace::RecordingSource::header_for(live,
                                                        s.channel->config())),
        rec(live, writer) {}
  trace::LiveChannelSource live;
  trace::TraceWriter writer;
  trace::RecordingSource rec;
};

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/bf_" + name + ".mwtr";
}

/// A faithful strict replay decodes each record exactly when its read comes
/// and ends having served every recorded read.
void expect_replayed_in_lockstep(const trace::TraceSource& src,
                                 std::uint64_t records) {
  const auto& c = src.counters();
  EXPECT_EQ(c.decoded, c.served + c.absent);
  EXPECT_EQ(c.decoded, records);
  EXPECT_EQ(c.missing, 0u);
  EXPECT_EQ(c.skipped, 0u);
}

TEST(SuBeamformingTraceTest, StrictReplayIsBitwiseLive) {
  Rng rng(23);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  const std::string path = tmp("su");
  SuBeamformingResult live;
  std::uint64_t records = 0;
  {
    Recorder r(s, path);
    live = simulate_su_beamforming(r.rec, cfg);
    r.writer.close();
    records = r.writer.records_written();
  }
  trace::TraceSource replay(path);
  const SuBeamformingResult replayed = simulate_su_beamforming(replay, cfg);
  EXPECT_EQ(live.throughput_mbps, replayed.throughput_mbps);
  EXPECT_EQ(live.mean_gain_db, replayed.mean_gain_db);
  EXPECT_EQ(live.overhead_fraction, replayed.overhead_fraction);
  EXPECT_GT(live.throughput_mbps, 1.0);
  expect_replayed_in_lockstep(replay, records);
  std::remove(path.c_str());
}

TEST(MuMimoTraceTest, TraceReplayMatchesLiveShape) {
  // The §6.2 record-then-replay path: each client's reads are teed into its
  // own recording, then the emulator runs purely from the traces and must
  // reproduce the live run bit for bit.
  Rng rng(20);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  const std::vector<std::string> paths = {tmp("mu0"), tmp("mu1"), tmp("mu2")};
  MuMimoSimResult live;
  std::vector<std::uint64_t> records;
  {
    std::deque<Recorder> recorders;
    std::vector<trace::ObservableSource*> sources;
    Scenario* scenarios[] = {&a, &b, &c};
    for (std::size_t i = 0; i < 3; ++i)
      sources.push_back(&recorders.emplace_back(*scenarios[i], paths[i]).rec);
    live = simulate_mu_mimo(sources, cfg);
    for (Recorder& r : recorders) {
      r.writer.close();
      records.push_back(r.writer.records_written());
    }
  }
  std::deque<trace::TraceSource> replays;
  std::vector<trace::ObservableSource*> sources;
  for (const std::string& path : paths)
    sources.push_back(&replays.emplace_back(path));
  const MuMimoSimResult replayed = simulate_mu_mimo(sources, cfg);

  ASSERT_EQ(live.per_client_mbps.size(), 3u);
  EXPECT_EQ(live.per_client_mbps, replayed.per_client_mbps);
  EXPECT_EQ(live.total_mbps, replayed.total_mbps);
  for (double mbps : live.per_client_mbps) EXPECT_GT(mbps, 0.5);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_replayed_in_lockstep(replays[i], records[i]);
    std::remove(paths[i].c_str());
  }
}

/// Records a static and a macro client once, sounding every slot (the
/// shortest period), into `paths`.
void record_every_slot(const std::vector<std::string>& paths,
                       std::uint64_t seed) {
  Rng rng(seed);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg = short_config();
  cfg.fixed_period_s = 0.0;  // sound at every slot
  Recorder ra(a, paths[0]);
  Recorder rb(b, paths[1]);
  trace::ObservableSource* const sources[] = {&ra.rec, &rb.rec};
  simulate_mu_mimo(sources, cfg);
  ra.writer.close();
  rb.writer.close();
}

/// Replays `paths` under `cfg`. A recording that sounded every slot holds
/// every read a longer period makes, at the same slot times, so a relaxed
/// replay serves each one exactly and skips the soundings it does not make.
MuMimoSimResult replay_relaxed(const std::vector<std::string>& paths,
                               const BeamformingSimConfig& cfg) {
  trace::TraceSource::Config relaxed;
  relaxed.strict = false;
  std::deque<trace::TraceSource> replays;
  std::vector<trace::ObservableSource*> sources;
  for (const std::string& path : paths)
    sources.push_back(&replays.emplace_back(path, relaxed));
  const MuMimoSimResult r = simulate_mu_mimo(sources, cfg);
  for (const trace::TraceSource& src : replays) {
    EXPECT_EQ(src.counters().missing, 0u);
    EXPECT_EQ(src.counters().held, 0u);
  }
  return r;
}

TEST(MuMimoTraceTest, StalePeriodHurtsMobileClientInReplay) {
  const std::vector<std::string> paths = {tmp("stale0"), tmp("stale1")};
  record_every_slot(paths, 21);
  auto run = [&](double period) {
    BeamformingSimConfig cfg = short_config();
    cfg.fixed_period_s = period;
    return replay_relaxed(paths, cfg);
  };
  const auto fast = run(5e-3);
  const auto slow = run(100e-3);
  EXPECT_LT(slow.per_client_mbps[1], fast.per_client_mbps[1]);
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(MuMimoTraceTest, EmptyClientListSafe) {
  const auto r = simulate_mu_mimo(
      std::span<trace::ObservableSource* const>{}, short_config());
  EXPECT_TRUE(r.per_client_mbps.empty());
  EXPECT_DOUBLE_EQ(r.total_mbps, 0.0);
}

TEST(MuMimoTraceTest, AdaptivePeriodFromTraceClassifier) {
  const std::vector<std::string> paths = {tmp("adaptive0"), tmp("adaptive1")};
  record_every_slot(paths, 22);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  EXPECT_GT(replay_relaxed(paths, cfg).total_mbps, 1.0);
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace mobiwlan
