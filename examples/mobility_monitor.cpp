// mobility_monitor — a streaming classification tool built on the library's
// trace infrastructure, in the spirit of what an AP vendor would ship for
// debugging: record a link's PHY observables while the classifier runs on
// it, then replay any recording through the classifier and emit a per-second
// CSV of its decisions.
//
// Usage:
//   mobility_monitor record <file> [static|environmental|micro|macro] [seconds]
//   mobility_monitor classify <file>
//
// `record` runs the standard classifier trial (runtime::run_classifier) on a
// live link through a RecordingSource, so every CSI, ToF and RSSI read it
// makes lands in an MWTR trace (trace/format.hpp); it prints the live CSV on
// stdout and a summary on stderr. `classify` replays the trace strictly
// through a TraceSource: every read comes back bit for bit, so its CSV is
// byte-identical to the one the live run printed.
//
// CSV columns: t_s, mode (latest label), similarity (Eq.-1 CSI similarity,
// 0 before the first pair), tof_active (1 while the ToF tracker is engaged),
// rssi_dbm (serving-link RSSI read at t; empty if absent).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "runtime/classifier_driver.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

using namespace mobiwlan;

namespace {

constexpr double kWarmupS = 1.0;  // first CSV row at t = 1 s

std::optional<MobilityClass> parse_class(const std::string& mode) {
  if (mode == "static") return MobilityClass::kStatic;
  if (mode == "environmental") return MobilityClass::kEnvironmental;
  if (mode == "micro") return MobilityClass::kMicro;
  if (mode == "macro") return MobilityClass::kMacro;
  return std::nullopt;
}

/// `text` as a finite, positive number of seconds, or nullopt.
std::optional<double> parse_seconds(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0)
    return std::nullopt;
  return v;
}

/// Runs the classifier trial over `src` for `duration_s`, printing one CSV
/// row per second.
void monitor(trace::ObservableSource& src, double duration_s) {
  std::printf("t_s,mode,similarity,tof_active,rssi_dbm\n");
  runtime::run_classifier(
      src, 0, duration_s, kWarmupS,
      [&](double t, const MobilityClassifier& clf) {
        std::printf("%.0f,%s,%.4f,%d,", t, to_string(clf.mode()).data(),
                    clf.similarity().value_or(0.0), clf.tof_active() ? 1 : 0);
        if (const auto rssi = src.rssi_dbm(0, t)) std::printf("%.1f", *rssi);
        std::printf("\n");
      });
}

int record(const std::string& path, MobilityClass cls, double seconds) {
  Rng rng(static_cast<std::uint64_t>(seconds * 1000) ^ 0xbeef);
  Scenario scenario = make_scenario(cls, rng);
  trace::LiveChannelSource live(*scenario.channel);
  trace::TraceWriter writer(path, trace::RecordingSource::header_for(
                                      live, scenario.channel->config()));
  trace::RecordingSource recording(live, writer);
  monitor(recording, seconds);
  writer.close();
  std::fprintf(stderr, "recorded %llu reads (%.1f s of %s mobility) to %s\n",
               static_cast<unsigned long long>(writer.records_written()),
               seconds, to_string(cls).data(), path.c_str());
  return 0;
}

int classify(const std::string& path) {
  // The trial's last ToF read fixes the recorded duration; scanning for it
  // also validates the whole file before the first CSV row.
  std::optional<double> last_tof_t;
  {
    trace::TraceReader reader(path);
    trace::TraceRecord rec;
    while (reader.next(rec))
      if (rec.kind == trace::StreamKind::kTof) last_tof_t = rec.t;
  }
  if (!last_tof_t) {
    std::fprintf(stderr, "%s holds no ToF reads: not a monitor recording\n",
                 path.c_str());
    return 1;
  }
  // Strict replay: any read the recording does not hold throws.
  trace::TraceSource replay(path);
  const MobilityClassifier::Config cfg;
  monitor(replay, *last_tof_t + 0.5 * cfg.tof_period_s);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s record <file> [static|environmental|micro|macro] [seconds]\n"
               "  %s classify <file>\n",
               argv0, argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && argc <= 5 && std::strcmp(argv[1], "record") == 0) {
      const std::string mode = argc > 3 ? argv[3] : "macro";
      const std::optional<MobilityClass> cls = parse_class(mode);
      if (!cls) {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 1;
      }
      const std::optional<double> seconds =
          argc > 4 ? parse_seconds(argv[4]) : std::optional<double>(30.0);
      if (!seconds) {
        std::fprintf(stderr, "seconds '%s' must be a finite number > 0\n",
                     argv[4]);
        return 1;
      }
      return record(argv[2], *cls, *seconds);
    }
    if (argc == 3 && std::strcmp(argv[1], "classify") == 0)
      return classify(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobility_monitor: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
