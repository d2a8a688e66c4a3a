// trace_replay_demo — record a mobility walk once, then replay it.
//
// Records 60 seconds of a macro-mobility walk (every PHY-observable read the
// classifier makes: CSI at the Table-2 cadence, ToF probes) into an MWTR v2
// trace file, then replays the same walk twice from the file alone:
//
//   1. a faithful replay (strict mode) — the classifier sees exactly what it
//      saw live, so its per-second decisions must match bit for bit;
//   2. a degraded replay — the PR-5 fault layer composed onto the trace
//      (FaultedSource over a relaxed TraceSource) drops 30% of the CSI and
//      ToF reads, showing how the same recorded walk classifies when the
//      observable export path is lossy.
//
// The three decision columns print side by side. This is the recorded-
// synthetic loop in miniature; `mobiwlan-bench --suite trace` gates the same
// property across every protocol loop.
//
// Usage: trace_replay_demo [--seed X] [--duration S] [--drop P] [--keep PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chan/scenario.hpp"
#include "runtime/classifier_driver.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

using namespace mobiwlan;

namespace {

struct Args {
  std::uint64_t seed = 1;
  double duration_s = 60.0;
  double drop = 0.3;
  std::string path;  // empty: temp file, removed on exit
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    if (key == "--seed") args.seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (key == "--duration") args.duration_s = std::atof(argv[i + 1]);
    else if (key == "--drop") args.drop = std::atof(argv[i + 1]);
    else if (key == "--keep") args.path = argv[i + 1];
    else return false;
  }
  return true;
}

const char* mode_name(std::optional<MobilityMode> m) {
  if (!m) return "-";
  switch (*m) {
    case MobilityMode::kStatic: return "static";
    case MobilityMode::kEnvironmental: return "environmental";
    case MobilityMode::kMicro: return "micro";
    case MobilityMode::kMacroToward: return "macro-toward";
    case MobilityMode::kMacroAway: return "macro-away";
    case MobilityMode::kMacroOrbit: return "macro-orbit";
  }
  return "?";
}

using DecisionLog = std::vector<std::pair<double, std::optional<MobilityMode>>>;

DecisionLog run(trace::ObservableSource& src, double duration_s) {
  DecisionLog log;
  runtime::run_classifier_from_source(
      src, 0, duration_s, 10.0,
      [&](double t, std::optional<MobilityMode> m) { log.emplace_back(t, m); });
  return log;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: trace_replay_demo [--seed X] [--duration S] "
                 "[--drop P] [--keep PATH]\n");
    return 1;
  }
  const bool keep = !args.path.empty();
  if (!keep) args.path = "trace_replay_demo.mwtr";

  // ---- record: a macro-mobility walk, every read teed into the trace ------
  Rng rng(args.seed);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  DecisionLog live;
  {
    trace::LiveChannelSource channel(*s.channel);
    trace::TraceWriter writer(
        args.path, trace::RecordingSource::header_for(channel, ChannelConfig{}));
    trace::RecordingSource recording(channel, writer);
    live = run(recording, args.duration_s);
    writer.close();
    std::printf("recorded %.0f s macro walk -> %s (%llu records)\n",
                args.duration_s, args.path.c_str(),
                static_cast<unsigned long long>(writer.records_written()));
  }

  // ---- replay 1: faithful (strict — any divergence would throw) -----------
  trace::TraceSource faithful(args.path);
  const DecisionLog replayed = run(faithful, args.duration_s);

  // ---- replay 2: the fault layer composed onto the same trace -------------
  // Relaxed mode with a short hold: replay-time drops shift which reads
  // happen, so queries between recorded reads are served from the previous
  // record while it is fresh instead of failing the replay.
  trace::TraceSource::Config relaxed;
  relaxed.strict = false;
  relaxed.max_age_s = 0.05;
  trace::TraceSource degraded_base(args.path, relaxed);
  FaultPlan plan;
  plan.csi.drop_prob = args.drop;
  plan.tof.drop_prob = args.drop;
  plan.seed = Rng(args.seed).stream(0xFA17).seed();
  trace::FaultedSource degraded(degraded_base, plan);
  const DecisionLog lossy = run(degraded, args.duration_s);

  // ---- side-by-side decisions ---------------------------------------------
  std::printf("\n%6s  %-14s %-14s %-14s\n", "t [s]", "live",
              "replay (strict)", "replay+drops");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto strict = i < replayed.size() ? replayed[i].second : std::nullopt;
    const auto faulted = i < lossy.size() ? lossy[i].second : std::nullopt;
    if (strict != live[i].second) ++mismatches;
    std::printf("%6.0f  %-14s %-14s %-14s\n", live[i].first,
                mode_name(live[i].second), mode_name(strict),
                mode_name(faulted));
  }
  std::printf("\nstrict replay: %zu/%zu decisions identical to live\n",
              live.size() - mismatches, live.size());
  std::printf("degraded replay skipped %llu recorded reads (%.0f%% drop plan)\n",
              static_cast<unsigned long long>(degraded_base.counters().skipped),
              args.drop * 100.0);
  if (keep)
    std::printf("trace kept at %s (replay later, or import CSV via "
                "trace::import_csv)\n", args.path.c_str());
  else
    std::remove(args.path.c_str());
  return mismatches == 0 ? 0 : 1;
}
