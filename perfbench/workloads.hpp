// workloads.hpp — the four benchmark workloads (see NOTES.md for why each
// exists and which layer each per-layer metric should move).
//
// Every workload has two entry points. The end-to-end one runs with tracing
// off and reports the metrics BENCHMARK.json bounds. The traced one wraps
// the workload's calls into the library in spans and reports per-layer
// metrics; a traced run of the benchmark runs the traced entry point of all
// four workloads, so every per-layer metric is present whichever workload
// is named.
#pragma once

#include <cstdint>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// The campus scenario's default master seed (runtime::kMasterSeed); the
/// only seed with pinned expected outputs.
inline constexpr std::uint64_t kDefaultSeed = 20140204;

enum class Size {
  kFull,  ///< the configuration BENCHMARK.json describes
  kTiny,  ///< a second-long smoke configuration for the benchmark's tests
};

struct RunConfig {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< measured time (split across traced sections)
  Size size = Size::kFull;
  std::string tmp_dir = ".";  ///< where link-trace writes its recordings
};

/// Track (Chrome trace pid) of each traced section.
enum Track : std::uint32_t {
  kTrackCampusSerial = 0,
  kTrackCampusParallel = 1,
  kTrackCampusProbe = 2,
  kTrackLoc = 3,
  kTrackLink = 4,
};

Result campus_e2e(const RunConfig& rc, bool parallel);
Result loc_e2e(const RunConfig& rc);
Result link_e2e(const RunConfig& rc);

Result campus_traced(const RunConfig& rc, SpanRecorder& rec);
Result loc_traced(const RunConfig& rc, SpanRecorder& rec);
Result link_traced(const RunConfig& rc, SpanRecorder& rec);

/// Workers the benchmark may use: min(4, hardware threads), at least 1.
std::size_t bench_workers();

/// Tracing overhead: how much longer one operation takes traced than
/// untraced, in percent.
inline double overhead_pct(double untraced_per_op, double traced_per_op) {
  return untraced_per_op > 0.0
             ? 100.0 * (traced_per_op - untraced_per_op) / untraced_per_op
             : 0.0;
}

}  // namespace perfbench
