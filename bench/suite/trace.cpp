// Trace record/replay suite (`mobiwlan-bench --suite trace`): the
// replay-determinism gate. Every protocol loop is run live through a
// RecordingSource tee, then re-run from the recorded trace alone, and the
// two runs must agree bit for bit — classifier decisions, protocol-loop
// statistics, association timelines. Any mismatch count above zero means
// the trace subsystem changed what a protocol observed.
//
//   * Classifier replay: 4 mobility classes x 2 seeds, per-second decisions
//     compared exactly (including withheld/stale decisions).
//   * Loop replay: link / latency / roaming / overall, each recorded live
//     (including runs with a 30% export-drop FaultPlan and an rssi_only run,
//     whose absence records must replay their exact degradation pattern) and
//     replayed in strict mode.
//   * Fault composition: a clean recording replayed through a FaultedSource
//     in relaxed mode — drops skip recorded reads (skipped > 0) and the
//     composed replay is itself deterministic.
//   * arXiv 2002.03905 pitfall probes: timestamp skew is detected (strict
//     replay throws), recording gaps decay the classifier to "unknown"
//     instead of being interpolated, and a trace lacking a required stream
//     is refused up front.
//   * A CSV import round-trip through trace::import_csv.
//
// Metrics land in a fidelity::FidelityReport gated against
// ci/trace_baseline.json: for a fixed --seed the report is byte-identical
// at any --jobs outside lines matching `"timing` (the replay-throughput
// probe is timing-based and quarantined under that prefix).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/latency_sim.hpp"
#include "mac/link_sim.hpp"
#include "net/deployment.hpp"
#include "net/deployment_source.hpp"
#include "net/roaming.hpp"
#include "runtime/classifier_driver.hpp"
#include "sim/overall_sim.hpp"
#include "suite/suite.hpp"
#include "trace/import.hpp"
#include "trace/source.hpp"
#include "trace/trace_source.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

/// The fault suite's export-drop plan, with feedback exports dropped too.
FaultPlan trace_drop_plan(double drop, std::uint64_t scenario_seed) {
  FaultPlan plan = export_drop_plan(drop, scenario_seed);
  plan.feedback.drop_prob = drop;
  return plan;
}

/// Scratch file path unique per process, probe and trial (trials run
/// concurrently in one process, and several suite runs may share a working
/// directory); removed after each probe.
std::string tmp_path(const char* probe, std::size_t index,
                     const char* ext = ".mwtr") {
  return "BENCH_trace_tmp_" + std::to_string(::getpid()) + "_" + probe + "_" +
         std::to_string(index) + ext;
}

struct TmpTrace {
  explicit TmpTrace(std::string p) : path(std::move(p)) {}
  ~TmpTrace() { std::remove(path.c_str()); }
  std::string path;
};

int count_if_differs(bool differs) { return differs ? 1 : 0; }

/// The replay-determinism harness every loop probe shares: runs `loop` live
/// over `live` composed with `plan` (FaultedSource, so the recording holds
/// each lost export as an absence record) through a RecordingSource, then
/// again over a strict TraceSource of that recording with no plan. Returns
/// (live result, replayed result); the trace at `path` is removed.
template <typename Loop>
auto record_replay(trace::ObservableSource& live, const FaultPlan& plan,
                   const std::string& path, const Loop& loop) {
  TmpTrace tmp(path);
  trace::FaultedSource faulted(live, plan);
  trace::TraceWriter writer(
      path, trace::RecordingSource::header_for(faulted, ChannelConfig{}));
  trace::RecordingSource rec(faulted, writer);
  auto live_r = loop(rec);
  writer.close();
  trace::TraceSource replay(path);  // strict
  auto replay_r = loop(replay);
  return std::make_pair(std::move(live_r), std::move(replay_r));
}

// ---- classifier replay ----------------------------------------------------

using DecisionLog = std::vector<std::pair<double, std::optional<MobilityMode>>>;

int classifier_replay_mismatches(MobilityClass cls, std::uint64_t seed,
                                 const std::string& path) {
  Rng rng(seed);
  Scenario s = make_scenario(cls, rng);
  trace::LiveChannelSource live(*s.channel);
  const auto [live_log, replay_log] =
      record_replay(live, FaultPlan{}, path, [](trace::ObservableSource& src) {
        DecisionLog log;
        runtime::run_classifier(
            src, 0, 30.0, 10.0, [&](double t, const MobilityClassifier& clf) {
              log.emplace_back(t, clf.decision(t));
            });
        return log;
      });
  if (live_log.size() != replay_log.size()) return 1;
  int mismatches = 0;
  for (std::size_t i = 0; i < live_log.size(); ++i)
    mismatches += count_if_differs(live_log[i] != replay_log[i]);
  return mismatches;
}

void trace_classifier_replay(runtime::Experiment& exp, FidelityReport& rep) {
  const std::size_t n = 4 * 2;  // classes x seeds
  const std::vector<std::uint64_t> seeds = exp.reserve_seeds(n);
  const auto rows = exp.map<int>(n, [&seeds](runtime::Trial& trial) {
    const MobilityClass cls = kClasses[trial.index / 2];
    return classifier_replay_mismatches(
        cls, seeds[trial.index], tmp_path("clf", trial.index));
  });
  int total = 0;
  for (const int m : rows) total += m;
  rep.add("trace.replay.classifier_mismatches", total);
}

// ---- link / latency replay ------------------------------------------------

int link_result_mismatches(const LinkSimResult& a, const LinkSimResult& b) {
  int m = 0;
  m += count_if_differs(a.goodput_mbps != b.goodput_mbps);
  m += count_if_differs(a.mean_per != b.mean_per);
  m += count_if_differs(a.frames != b.frames);
  m += count_if_differs(a.mpdus_sent != b.mpdus_sent);
  m += count_if_differs(a.mpdus_lost != b.mpdus_lost);
  m += count_if_differs(a.full_loss_events != b.full_loss_events);
  m += count_if_differs(a.mcs_series != b.mcs_series);
  m += count_if_differs(a.mode_series != b.mode_series);
  return m;
}

/// One link-sim run recorded through `plan` and replayed strict, every
/// result field compared bitwise.
int link_replay_mismatches(std::uint64_t seed, const FaultPlan& plan,
                           const std::string& path) {
  LinkSimConfig cfg;
  cfg.duration_s = 5.0;
  cfg.provide_sensor_hint = true;
  cfg.provide_phy_feedback = true;
  Rng rng(seed);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  trace::LiveChannelSource live(*s.channel);
  const auto [live_r, replay_r] =
      record_replay(live, plan, path, [&](trace::ObservableSource& src) {
        AtherosRa ra = make_mobility_aware_atheros_ra();
        Rng sim_rng(seed + 1);
        return simulate_link(src, ra, cfg, sim_rng, s.truth);
      });
  return link_result_mismatches(live_r, replay_r);
}

int latency_replay_mismatches(std::uint64_t seed, const FaultPlan& plan,
                              const std::string& path) {
  LatencySimConfig cfg;
  cfg.duration_s = 5.0;
  Rng rng(seed);
  Scenario s = make_scenario(MobilityClass::kMicro, rng);
  trace::LiveChannelSource live(*s.channel);
  const auto [live_r, replay_r] =
      record_replay(live, plan, path, [&](trace::ObservableSource& src) {
        AtherosRa ra;
        Rng sim_rng(seed + 1);
        return simulate_latency(src, ra, cfg, sim_rng);
      });
  int m = 0;
  m += count_if_differs(live_r.delivered != replay_r.delivered);
  m += count_if_differs(live_r.dropped != replay_r.dropped);
  m += count_if_differs(live_r.offered != replay_r.offered);
  m += count_if_differs(live_r.leftover != replay_r.leftover);
  m += count_if_differs(live_r.goodput_mbps != replay_r.goodput_mbps);
  m += count_if_differs(live_r.latencies_s.size() != replay_r.latencies_s.size());
  if (!live_r.latencies_s.empty() && !replay_r.latencies_s.empty())
    m += count_if_differs(live_r.latencies_s.mean() != replay_r.latencies_s.mean());
  return m;
}

void trace_link_latency_replay(runtime::Experiment& exp, FidelityReport& rep) {
  // Trials: clean, 30% drops, rssi_only — the degraded recordings must
  // replay their exact absence pattern (strict mode, absence records).
  const std::vector<std::uint64_t> seeds = exp.reserve_seeds(3);
  const auto link_rows = exp.map<int>(3, [&seeds](runtime::Trial& trial) {
    FaultPlan plan;
    if (trial.index == 1) plan = trace_drop_plan(0.3, seeds[trial.index]);
    if (trial.index == 2) {
      plan = trace_drop_plan(0.0, seeds[trial.index]);
      plan.rssi_only = true;
    }
    return link_replay_mismatches(seeds[trial.index], plan,
                                  tmp_path("link", trial.index));
  });
  int link_total = 0;
  for (const int m : link_rows) link_total += m;
  rep.add("trace.replay.link_mismatches", link_total);

  const std::vector<std::uint64_t> lat_seeds = exp.reserve_seeds(2);
  const auto lat_rows = exp.map<int>(2, [&lat_seeds](runtime::Trial& trial) {
    const FaultPlan plan = trial.index == 1
                               ? trace_drop_plan(0.3, lat_seeds[trial.index])
                               : FaultPlan{};
    return latency_replay_mismatches(lat_seeds[trial.index], plan,
                                     tmp_path("lat", trial.index));
  });
  int lat_total = 0;
  for (const int m : lat_rows) lat_total += m;
  rep.add("trace.replay.latency_mismatches", lat_total);
}

// ---- roaming / overall replay ---------------------------------------------

/// A corridor walk's deployment, rebuilt from `seed`.
WlanDeployment corridor_deployment(std::uint64_t seed) {
  Rng rng(seed);
  auto traj = WlanDeployment::corridor_walk(rng);
  return WlanDeployment(WlanDeployment::corridor_layout(), traj,
                        ChannelConfig{}, rng);
}

int roam_replay_mismatches(std::uint64_t seed, RoamingScheme scheme,
                           const FaultPlan& plan, const std::string& path) {
  RoamingConfig cfg;
  cfg.duration_s = 30.0;
  WlanDeployment wlan = corridor_deployment(seed);
  const MobilityClass cls = wlan.client().mobility_class();
  LiveDeploymentSource live(wlan);
  const auto [live_r, replay_r] =
      record_replay(live, plan, path, [&](trace::ObservableSource& src) {
        return simulate_roaming(src, scheme, cfg, cls);
      });
  int m = 0;
  m += count_if_differs(live_r.mean_throughput_mbps != replay_r.mean_throughput_mbps);
  m += count_if_differs(live_r.handoffs != replay_r.handoffs);
  m += count_if_differs(live_r.scans != replay_r.scans);
  m += count_if_differs(live_r.outage_s != replay_r.outage_s);
  m += count_if_differs(live_r.associations != replay_r.associations);
  return m;
}

int overall_replay_mismatches(std::uint64_t seed, bool aware, double drop,
                              const std::string& path) {
  OverallSimConfig cfg;
  cfg.duration_s = 8.0;
  cfg.mobility_aware = aware;
  WlanDeployment wlan = corridor_deployment(seed);
  LiveDeploymentSource live(wlan);
  const auto [live_r, replay_r] = record_replay(
      live, trace_drop_plan(drop, seed), path,
      [&](trace::ObservableSource& src) {
        Rng sim_rng(seed + 1);
        return simulate_overall(src, cfg, sim_rng);
      });
  int m = 0;
  m += count_if_differs(live_r.throughput_mbps != replay_r.throughput_mbps);
  m += count_if_differs(live_r.handoffs != replay_r.handoffs);
  m += count_if_differs(live_r.outage_s != replay_r.outage_s);
  m += count_if_differs(live_r.associations != replay_r.associations);
  return m;
}

void trace_deployment_replay(runtime::Experiment& exp, FidelityReport& rep) {
  const std::vector<std::uint64_t> roam_seeds = exp.reserve_seeds(3);
  const auto roam_rows = exp.map<int>(3, [&roam_seeds](runtime::Trial& trial) {
    const RoamingScheme schemes[] = {RoamingScheme::kDefault,
                                     RoamingScheme::kSensorHint,
                                     RoamingScheme::kMotionAware};
    const FaultPlan plan = trial.index == 2
                               ? trace_drop_plan(0.3, roam_seeds[trial.index])
                               : FaultPlan{};
    return roam_replay_mismatches(roam_seeds[trial.index],
                                  schemes[trial.index], plan,
                                  tmp_path("roam", trial.index));
  });
  int roam_total = 0;
  for (const int m : roam_rows) roam_total += m;
  rep.add("trace.replay.roam_mismatches", roam_total);

  const std::vector<std::uint64_t> ov_seeds = exp.reserve_seeds(2);
  const auto ov_rows = exp.map<int>(2, [&ov_seeds](runtime::Trial& trial) {
    const bool aware = trial.index == 0;
    const double drop = trial.index == 1 ? 0.3 : 0.0;
    return overall_replay_mismatches(ov_seeds[trial.index], aware, drop,
                                     tmp_path("overall", trial.index));
  });
  int ov_total = 0;
  for (const int m : ov_rows) ov_total += m;
  rep.add("trace.replay.overall_mismatches", ov_total);
}

// ---- fault layer composed onto replay -------------------------------------

/// Records a clean link run, then replays it twice through a 30%-drop
/// FaultedSource in relaxed mode. The composed replay must (a) skip recorded
/// reads (the drops land on the replayed stream), and (b) be deterministic.
void trace_fault_composition(runtime::Experiment& exp, FidelityReport& rep) {
  const std::vector<std::uint64_t> seeds = exp.reserve_seeds(1);
  const std::uint64_t seed = seeds[0];
  const std::string path = tmp_path("compose", 0);
  TmpTrace tmp(path);

  LinkSimConfig cfg;
  cfg.duration_s = 5.0;
  {
    Rng rng(seed);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource rec(live, writer);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(seed + 1);
    (void)simulate_link(rec, ra, cfg, sim_rng, MobilityClass::kMacro);
    writer.close();
  }

  const FaultPlan plan = trace_drop_plan(0.3, seed);
  auto composed_run = [&](std::uint64_t* skipped_out) {
    // Relaxed: replay-time drops make later queries pass over recorded reads
    // (counted as skipped), and the diverged frame cadence is served from the
    // previous ground-truth record while it is younger than one frame.
    trace::TraceSource::Config tc;
    tc.strict = false;
    tc.max_age_s = 0.05;
    trace::TraceSource replay(path, tc);
    trace::FaultedSource faulted(replay, plan);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(seed + 1);
    const LinkSimResult r =
        simulate_link(faulted, ra, cfg, sim_rng, MobilityClass::kMacro);
    if (skipped_out) *skipped_out = replay.counters().skipped;
    return r;
  };
  std::uint64_t skipped = 0;
  const LinkSimResult a = composed_run(&skipped);
  const LinkSimResult b = composed_run(nullptr);
  rep.add("trace.compose.fault_mismatches", link_result_mismatches(a, b));
  rep.add("trace.compose.fault_skipped_positive", skipped > 0 ? 1.0 : 0.0);
  (void)exp;
}

// ---- pitfall probes (arXiv 2002.03905) ------------------------------------

void trace_pitfalls(runtime::Experiment& exp, FidelityReport& rep) {
  // Timestamp skew: a strict replay whose query times do not align with the
  // log must throw, never silently serve the nearest record.
  {
    const std::string path = tmp_path("skew", 0);
    TmpTrace tmp(path);
    trace::TraceHeader h;
    h.stream_mask = trace::stream_bit(trace::StreamKind::kRssi);
    h.n_tx = 1;
    h.n_rx = 1;
    h.n_sc = 1;
    {
      trace::TraceWriter writer(path, h);
      writer.put_scalar(trace::StreamKind::kRssi, 0, 0.5, -60.0);
      writer.close();
    }
    int detected = 0;
    try {
      trace::TraceSource replay(path);
      (void)replay.rssi_dbm(0, 0.75);  // past the record: skips it
    } catch (const trace::TraceError& e) {
      if (e.code() == trace::TraceError::Code::kTimestampSkew) ++detected;
    }
    try {
      trace::TraceSource replay(path);
      (void)replay.rssi_dbm(0, 0.25);  // before the record: no match
    } catch (const trace::TraceError& e) {
      if (e.code() == trace::TraceError::Code::kTimestampSkew) ++detected;
    }
    rep.add("trace.pitfall.skew_detected", detected == 2 ? 1.0 : 0.0);
  }

  // Gap handling: replaying past the end of a recording must decay the
  // classifier to "unknown" (hold-then-decay), never interpolate.
  {
    const std::vector<std::uint64_t> seeds = exp.reserve_seeds(1);
    const std::string path = tmp_path("gap", 0);
    TmpTrace tmp(path);
    {
      Rng rng(seeds[0]);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      trace::LiveChannelSource live(*s.channel);
      trace::TraceWriter writer(
          path, trace::RecordingSource::header_for(live, ChannelConfig{}));
      trace::RecordingSource rec(live, writer);
      runtime::run_classifier(rec, 0, 20.0, 10.0,
                              [](double, const MobilityClassifier&) {});
      writer.close();
    }
    bool engaged_in_coverage = false;
    bool engaged_in_gap = false;
    trace::TraceSource::Config tc;
    tc.strict = false;
    trace::TraceSource replay(path, tc);
    runtime::run_classifier(
        replay, 0, 40.0, 10.0, [&](double t, const MobilityClassifier& clf) {
          const bool m = clf.decision(t).has_value();
          if (t < 20.0 && m) engaged_in_coverage = true;
          if (t >= 25.0 && m) engaged_in_gap = true;
        });
    rep.add("trace.pitfall.gap_decayed",
            engaged_in_coverage && !engaged_in_gap ? 1.0 : 0.0);
  }

  // Missing feedback: a consumer must be refused up front when the trace
  // lacks a stream it requires, instead of replaying silent absence.
  {
    const std::vector<std::uint64_t> seeds = exp.reserve_seeds(1);
    const std::string path = tmp_path("missing", 0);
    TmpTrace tmp(path);
    {
      Rng rng(seeds[0]);
      Scenario s = make_scenario(MobilityClass::kStatic, rng);
      trace::LiveChannelSource live(*s.channel);
      trace::TraceWriter writer(
          path, trace::RecordingSource::header_for(live, ChannelConfig{}));
      trace::RecordingSource rec(live, writer);
      runtime::run_classifier(rec, 0, 12.0, 10.0,
                              [](double, const MobilityClassifier&) {});
      writer.close();
    }
    bool refused = false;
    try {
      trace::TraceSource::Config tc;
      tc.ignore_mask = trace::stream_bit(trace::StreamKind::kTof);
      trace::TraceSource replay(path, tc);
      runtime::run_classifier(replay, 0, 12.0, 10.0,
                              [](double, const MobilityClassifier&) {});
    } catch (const trace::TraceError& e) {
      refused = e.code() == trace::TraceError::Code::kMissingStream;
    }
    rep.add("trace.pitfall.missing_stream_refused", refused ? 1.0 : 0.0);
  }
}

// ---- CSV import round-trip ------------------------------------------------

void trace_import_probe(runtime::Experiment& exp, FidelityReport& rep) {
  (void)exp;
  const std::string csv = tmp_path("import", 0, ".csv");
  const std::string out = tmp_path("import", 0);
  TmpTrace tmp_csv(csv), tmp_out(out);
  {
    std::ofstream f(csv, std::ios::binary);
    f << "mwtr-csv,2\n"
         "streams,rssi,tof\n"
         "units,1\n"
         "geometry,1,1,1\n"
         "carrier_hz,5.24e9\n"
         "period_s,0.5\n"
         "data\n"
         "rssi,0,0.0,-55.25\n"
         "tof,0,0.0,412.5\n"
         "rssi,0,0.5,-56.5\n"
         "tof,0,0.5,413.75\n";
  }
  bool ok = false;
  try {
    const std::uint64_t n = trace::import_csv(csv, out);
    trace::TraceSource replay(out);
    const auto r0 = replay.rssi_dbm(0, 0.0);
    const auto t0 = replay.tof_cycles(0, 0.0);
    const auto r1 = replay.rssi_dbm(0, 0.5);
    const auto t1 = replay.tof_cycles(0, 0.5);
    ok = n == 4 && r0 && *r0 == -55.25 && t0 && *t0 == 412.5 && r1 &&
         *r1 == -56.5 && t1 && *t1 == 413.75 &&
         !replay.has(trace::StreamKind::kCsi);
  } catch (const trace::TraceError&) {
    ok = false;
  }
  rep.add("trace.import.csv_roundtrip_ok", ok ? 1.0 : 0.0);
}

// ---- replay throughput (timing-quarantined) --------------------------------

/// Streams one recorded link trace back through TraceReader and reports
/// records/s and allocs/record. Keys carry the `timing.` prefix so the
/// determinism diff (`grep -v '"timing'`) strips them alongside the wall
/// clock; nothing here is gated.
void trace_throughput_probe(runtime::Experiment& exp, FidelityReport& rep) {
  const std::vector<std::uint64_t> seeds = exp.reserve_seeds(1);
  const std::string path = tmp_path("perf", 0);
  TmpTrace tmp(path);
  LinkSimConfig cfg;
  cfg.duration_s = 5.0;
  {
    Rng rng(seeds[0]);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource rec(live, writer);
    AtherosRa ra;
    Rng sim_rng(seeds[0] + 1);
    (void)simulate_link(rec, ra, cfg, sim_rng, MobilityClass::kMacro);
    writer.close();
  }
  std::uint64_t records = 0;
  const std::uint64_t allocs0 = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  {
    trace::TraceReader reader(path);
    trace::TraceRecord record;
    while (reader.next(record)) ++records;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t allocs = alloc_count() - allocs0;
  if (records > 0 && wall_s > 0.0) {
    rep.add("timing.replay_records_per_s",
            static_cast<double>(records) / wall_s);
    rep.add("timing.replay_allocs_per_record",
            static_cast<double>(allocs) / static_cast<double>(records));
  }
  std::printf("  replay throughput: %llu records in %.3fs (%.0f records/s, "
              "%.3f allocs/record%s)\n",
              static_cast<unsigned long long>(records), wall_s,
              static_cast<double>(records) / wall_s,
              static_cast<double>(allocs) / static_cast<double>(records),
              alloc_hook_active() ? "" : ", hook not linked");
}

}  // namespace

FidelityReport run_trace_report(runtime::Experiment& exp) {
  FidelityReport rep;
  trace_classifier_replay(exp, rep);
  trace_link_latency_replay(exp, rep);
  trace_deployment_replay(exp, rep);
  trace_fault_composition(exp, rep);
  trace_pitfalls(exp, rep);
  trace_import_probe(exp, rep);
  trace_throughput_probe(exp, rep);
  return rep;
}

}  // namespace mobiwlan::benchsuite
