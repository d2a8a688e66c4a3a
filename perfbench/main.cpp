// mwbench — runs one benchmark workload and prints its metrics.
//
//   mwbench --workload NAME --seed N --seconds S --trace 0|1
//           [--tmp-dir DIR] [--trace-out FILE]
//
// With --trace 0 the named workload runs with tracing off and reports the
// end-to-end metrics. With --trace 1 the traced sections of all four
// workloads run (so every per-layer metric is reported whichever workload is
// named), and their spans are written as Chrome trace-event JSON to
// --trace-out. The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"campus-serial", "campus-parallel",
                                      "loc-mixed", "link-trace"};

int usage(const char* why) {
  std::fprintf(stderr,
               "mwbench: %s\nusage: mwbench --workload campus-serial|campus-parallel|"
               "loc-mixed|link-trace --seed N --seconds S --trace 0|1 "
               "[--tmp-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (!s || !*s || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  RunConfig rc;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, seed)) return usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, seconds) || seconds == 0 || seconds > 3600)
        return usage("--seconds takes an integer in [1, 3600]");
    } else if (a == "--trace") {
      if (!parse_u64(v, trace) || trace > 1) return usage("--trace takes 0 or 1");
    } else if (a == "--tmp-dir") {
      rc.tmp_dir = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || seconds == 0 || trace > 1)
    return usage("--seed, --seconds and --trace are required");
  rc.seed = seed;
  rc.seconds = static_cast<double>(seconds);

  std::printf("host: %s\n", host_provenance_json().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%llu trace=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  std::fflush(stdout);

  Result res;
  try {
    if (trace == 0) {
      if (workload == "campus-serial") res = campus_e2e(rc, false);
      if (workload == "campus-parallel") res = campus_e2e(rc, true);
      if (workload == "loc-mixed") res = loc_e2e(rc);
      if (workload == "link-trace") res = link_e2e(rc);
      res.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      SpanRecorder rec(std::size_t{1} << 20);
      res.merge(campus_traced(rc, rec));
      RunConfig loc_rc = rc;
      loc_rc.seconds = rc.seconds / 4.0;
      res.merge(loc_traced(loc_rc, rec));
      res.merge(link_traced(rc, rec));
      if (!trace_out.empty()) {
        const bool ok = write_chrome_trace(
            trace_out, rec.spans(),
            {"campus-serial", "campus-parallel", "campus session probe", "loc-mixed",
             "link-trace"});
        if (!ok) {
          std::fprintf(stderr, "mwbench: cannot write %s\n", trace_out.c_str());
          return 1;
        }
        std::printf("trace: %zu spans (%llu not kept) -> %s\n", rec.spans().size(),
                    static_cast<unsigned long long>(rec.dropped()), trace_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  for (const auto& m : res.metrics)
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& f : res.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                json_escape(res.metrics[i].name).c_str(), res.metrics[i].value,
                json_escape(res.metrics[i].unit).c_str());
  std::printf("}}\n");
  return 0;
}
