// End-to-end record/replay determinism at the protocol-loop level: a loop
// run over a RecordingSource tee and re-run from the recorded trace alone
// must produce bit-identical results. The full matrix (all loops, fault
// levels, seeds) runs in `mobiwlan-bench --suite trace`; these are the fast
// regression versions.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/link_sim.hpp"
#include "runtime/classifier_driver.hpp"
#include "sim/beamforming_sim.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

namespace mobiwlan {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

TEST(TraceReplayTest, LinkSimReplaysBitIdentically) {
  const std::string path = tmp("replay_link.mwtr");
  LinkSimConfig cfg;
  cfg.duration_s = 2.0;
  cfg.provide_sensor_hint = true;
  cfg.provide_phy_feedback = true;
  LinkSimResult live_r;
  {
    Rng rng(11);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource rec(live, writer);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(12);
    live_r = simulate_link(rec, ra, cfg, sim_rng, s.truth);
    writer.close();
  }
  trace::TraceSource replay(path);  // strict: any skew would throw
  AtherosRa ra = make_mobility_aware_atheros_ra();
  Rng sim_rng(12);
  const LinkSimResult replay_r =
      simulate_link(replay, ra, cfg, sim_rng, MobilityClass::kMacro);
  EXPECT_EQ(live_r.goodput_mbps, replay_r.goodput_mbps);
  EXPECT_EQ(live_r.mean_per, replay_r.mean_per);
  EXPECT_EQ(live_r.frames, replay_r.frames);
  EXPECT_EQ(live_r.mpdus_sent, replay_r.mpdus_sent);
  EXPECT_EQ(live_r.mpdus_lost, replay_r.mpdus_lost);
  EXPECT_EQ(live_r.mcs_series, replay_r.mcs_series);
  EXPECT_EQ(live_r.mode_series, replay_r.mode_series);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, DegradedLinkSimReplaysItsAbsencePattern) {
  const std::string path = tmp("replay_link_fault.mwtr");
  LinkSimConfig cfg;
  cfg.duration_s = 2.0;
  FaultPlan plan;
  plan.csi.drop_prob = 0.3;
  plan.tof.drop_prob = 0.3;
  plan.seed = 5;
  LinkSimResult live_r;
  {
    Rng rng(21);
    Scenario s = make_scenario(MobilityClass::kMicro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::FaultedSource faulted(live, plan);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(faulted, ChannelConfig{}));
    trace::RecordingSource rec(faulted, writer);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(22);
    live_r = simulate_link(rec, ra, cfg, sim_rng, s.truth);
    writer.close();
  }
  // Replay is strict and UNfaulted: the degradation pattern lives in the
  // trace itself as absence records.
  trace::TraceSource replay(path);
  AtherosRa ra = make_mobility_aware_atheros_ra();
  Rng sim_rng(22);
  const LinkSimResult replay_r =
      simulate_link(replay, ra, cfg, sim_rng, MobilityClass::kMicro);
  EXPECT_EQ(live_r.goodput_mbps, replay_r.goodput_mbps);
  EXPECT_EQ(live_r.mpdus_sent, replay_r.mpdus_sent);
  EXPECT_EQ(live_r.mpdus_lost, replay_r.mpdus_lost);
  EXPECT_EQ(live_r.mcs_series, replay_r.mcs_series);
  EXPECT_EQ(live_r.mode_series, replay_r.mode_series);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, ClassifierDecisionsReplayExactly) {
  const std::string path = tmp("replay_clf.mwtr");
  using Log = std::vector<std::pair<double, std::optional<MobilityMode>>>;
  Log live_log, replay_log;
  {
    Rng rng(31);
    Scenario s = make_scenario(MobilityClass::kEnvironmental, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource rec(live, writer);
    runtime::run_classifier_from_source(
        rec, 0, 15.0, 5.0, [&](double t, std::optional<MobilityMode> m) {
          live_log.emplace_back(t, m);
        });
    writer.close();
  }
  trace::TraceSource replay(path);
  runtime::run_classifier_from_source(
      replay, 0, 15.0, 5.0, [&](double t, std::optional<MobilityMode> m) {
        replay_log.emplace_back(t, m);
      });
  ASSERT_FALSE(live_log.empty());
  EXPECT_EQ(live_log, replay_log);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, ReplayRefusesTraceMissingRequiredStream) {
  const std::string path = tmp("replay_missing.mwtr");
  {
    Rng rng(41);
    Scenario s = make_scenario(MobilityClass::kStatic, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource rec(live, writer);
    runtime::run_classifier_from_source(rec, 0, 6.0, 5.0,
                                        [](double, std::optional<MobilityMode>) {});
    writer.close();
  }
  trace::TraceSource::Config cfg;
  cfg.ignore_mask = trace::stream_bit(trace::StreamKind::kTof);
  trace::TraceSource replay(path, cfg);
  try {
    runtime::run_classifier_from_source(replay, 0, 6.0, 5.0,
                                        [](double, std::optional<MobilityMode>) {});
    FAIL() << "classifier ran without its required ToF stream";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.code(), trace::TraceError::Code::kMissingStream);
  }
  std::remove(path.c_str());
}

TEST(TraceReplayTest, MuMimoTraceFilesRejectMalformedInput) {
  const std::string path = tmp("replay_mumimo_bad.mwtr");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage, not a recorded client trace", f);
    std::fclose(f);
  }
  BeamformingSimConfig cfg;
  try {
    (void)simulate_mu_mimo_trace_files({path}, cfg);
    FAIL() << "malformed client trace accepted";
  } catch (const trace::TraceError& e) {
    EXPECT_EQ(e.code(), trace::TraceError::Code::kBadMagic);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mobiwlan
