// perfbench_test — the benchmark's own tests: span self-time accounting on
// synthetic spans, the percentile rule, and a tiny-size smoke run of every
// workload (end-to-end and traced) whose output checks must pass.
//
//   perfbench_test            # exits non-zero if any case fails
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

void test_self_time() {
  // parent [0,100]: children [10,30] and [20,50] overlap, [90,120] runs past
  // the parent's end, so they cover [10,50] + [90,100] = 50 of its 100.
  // The grandchild [25,45] covers part of [20,50] and nothing of the parent
  // beyond what its own parent already covers.
  std::vector<Span> s;
  s.push_back(Span{"root", 1, 0, 100, -1, 0});
  s.push_back(Span{"a", 1, 10, 30, 0, 0});
  s.push_back(Span{"b", 1, 20, 50, 0, 0});
  s.push_back(Span{"c", 1, 90, 120, 0, 0});
  s.push_back(Span{"g", 1, 25, 45, 2, 0});
  s.push_back(Span{"lone", 2, 200, 260, -1, 0});
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 20);
  EXPECT(self[5] == 60);
  EXPECT(total_self_ns(s, self, "root") == 50);
  EXPECT(total_self_ns(s, self, "b") + total_self_ns(s, self, "g") == 30);

  // A child nested inside another child adds no coverage.
  std::vector<Span> n;
  n.push_back(Span{"p", 0, 0, 10, -1, 0});
  n.push_back(Span{"x", 0, 2, 8, 0, 0});
  n.push_back(Span{"y", 0, 3, 4, 0, 0});
  EXPECT(self_times(n)[0] == 4);
}

void test_percentile_rule() {
  EXPECT(tail_percentile(9) == 0.0);
  EXPECT(tail_percentile(20) == 50.0);
  EXPECT(tail_percentile(99) == 50.0);
  EXPECT(tail_percentile(100) == 90.0);
  EXPECT(tail_percentile(999) == 90.0);
  EXPECT(tail_percentile(1000) == 99.0);
  EXPECT(tail_percentile(10000) == 99.9);
  EXPECT(tail_percentile(100000) == 99.99);
  EXPECT(tail_percentile(10000000) == 99.99);

  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(100 - i);
  EXPECT(quantile(v, 0.5) == 50.0);
  EXPECT(std::fabs(quantile(v, 0.9) - 90.0) < 1e-9);
  EXPECT(median({3.0, 1.0, 2.0, 4.0}) == 2.5);
  // Interquartile mean of 1..8 drops 1, 2 and 7, 8: mean of 3..6.
  EXPECT(iq_mean({8, 1, 7, 2, 6, 3, 5, 4}) == 4.5);
  EXPECT(iq_mean({1000.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(iq_mean({7.0}) == 7.0);
  double used = 0.0;
  std::vector<double> w(200, 1.0);
  w.back() = 5.0;
  (void)tail_value(w, 99.0, &used);  // 200 samples support p90, not p99
  EXPECT(used == 90.0);
  std::vector<double> few{1.0, 2.0, 3.0};
  EXPECT(tail_value(few, 99.0, &used) == 2.0);
  EXPECT(used == 50.0);
}

void test_chrome_trace(const std::string& dir) {
  SpanRecorder rec(2);
  const std::int32_t p = rec.add("outer", 7, 1000, 5000);
  rec.add("inner", 7, 2000, 3000, p);
  EXPECT(rec.add("dropped", 7, 0, 1) == -1);
  EXPECT(rec.dropped() == 1);
  const std::string path = dir + "/trace.json";
  EXPECT(write_chrome_trace(path, rec.spans(), {"section"}));
  std::ifstream f(path);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  EXPECT(text.find("\"name\":\"inner\",\"ph\":\"X\"") != std::string::npos);
  EXPECT(text.find("\"ts\":1.000,\"dur\":1.000,\"args\":{\"id\":7}") != std::string::npos);
}

void expect_clean(const char* what, const Result& r,
                  const std::vector<std::string>& names) {
  if (!r.correct) {
    std::fprintf(stderr, "%s:\n", what);
    for (const auto& f : r.failures) std::fprintf(stderr, "  %s\n", f.c_str());
  }
  EXPECT(r.correct);
  EXPECT(r.attempted > 0);
  EXPECT(r.failed == 0);
  std::set<std::string> have;
  for (const auto& m : r.metrics) {
    EXPECT(std::isfinite(m.value));
    have.insert(m.name);
  }
  for (const auto& n : names) {
    if (!have.count(n)) std::fprintf(stderr, "%s: missing metric %s\n", what, n.c_str());
    EXPECT(have.count(n) == 1);
  }
}

void test_smoke(const std::string& dir) {
  RunConfig rc;
  rc.size = Size::kTiny;
  rc.seconds = 0.2;
  rc.tmp_dir = dir;
  const std::vector<std::string> e2e{"setup_s", "ops_per_s", "op_us_p50", "aux_per_s"};
  expect_clean("campus-serial", campus_e2e(rc, false), e2e);
  expect_clean("campus-parallel", campus_e2e(rc, true), e2e);
  expect_clean("loc-mixed", loc_e2e(rc), e2e);
  expect_clean("link-trace", link_e2e(rc), e2e);

  SpanRecorder rec(1 << 18);
  expect_clean("campus traced", campus_traced(rc, rec),
               {"chan.sample_slot_ns", "core.observe_step_ns", "mac.mac_step_ns",
                "net.maybe_roam_ns", "runtime.barrier_us",
                "campus-serial.unattributed_share", "campus-parallel.shard_imbalance"});
  expect_clean("loc traced", loc_traced(rc, rec),
               {"loc.observe_ap_us", "loc.locate_us", "loc.survey_cell_us",
                "loc.query_us_p99", "loc-mixed.trace_overhead_pct"});
  expect_clean("link traced", link_traced(rc, rec),
               {"chan.live_read_ns", "trace.source_read_ns", "trace.write_ns_per_record",
                "trace.read_ns_per_record", "link.protocol_ns_per_frame"});
  EXPECT(!rec.spans().empty());
}

}  // namespace

int main() {
  const std::string dir = "perfbench_test_tmp";
  std::filesystem::create_directories(dir);
  test_self_time();
  test_percentile_rule();
  test_chrome_trace(dir);
  test_smoke(dir);
  std::filesystem::remove_all(dir);
  if (g_failures) {
    std::fprintf(stderr, "perfbench_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all cases pass\n");
  return 0;
}
