// spans.hpp — the benchmark's measurement plumbing: wall-clock spans timed
// from outside the library, self-time accounting, the percentile rule, the
// Chrome trace-event writer, and the result record every workload fills.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing under src/ is instrumented. A span
// names the layer call it timed, carries the id of the operation it belongs
// to (a session-step, a query, a frame), and points at the span that caused
// it, so a layer's self time is its duration minus what its children cover.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   ///< static string: the layer call timed
  std::uint64_t id = 0;    ///< the operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint32_t track = 0;   ///< Chrome trace pid (one per workload section)
};

/// Spans kept in memory up to a fixed capacity and written at exit. Spans
/// past the capacity are counted but not kept; callers size sections so the
/// spans their metrics are computed from fit.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Records a finished span; returns its index, or -1 when full.
  std::int32_t add(const char* name, std::uint64_t id, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, id, start_ns, end_ns, parent, track_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is set by close(); returns -1 when full.
  std::int32_t open(const char* name, std::uint64_t id,
                    std::int32_t parent = -1) {
    return add(name, id, now_ns(), 0, parent);
  }
  void close(std::int32_t index) { end_at(index, now_ns()); }
  void end_at(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  void set_track(std::uint32_t track) { track_ = track; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint32_t track_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span).
/// Grandchildren are covered through their parents.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Sum of self times of the spans named `name` (pointer or string match).
std::int64_t total_self_ns(const std::vector<Span>& spans,
                           const std::vector<std::int64_t>& self,
                           const std::string& name);

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place);
/// 0 for an empty vector.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Mean of the middle half of `v` (the interquartile mean): as robust to
/// outliers as the median, but not quantized to the clock's nanosecond grid,
/// so a short call's typical cost does not read identically run after run.
double iq_mean(std::vector<double> v);

/// The percentile rule: the highest percentile of the ladder 50, 90, 99,
/// 99.9, 99.99 that has at least ten of `n` samples beyond it, or 0 when
/// even the median lacks them.
double tail_percentile(std::size_t n);

/// A tail percentile of `v` reported under a fixed name: `wanted` when the
/// sample count supports it, otherwise the highest percentile the rule
/// allows. Returns the percentile actually used through `used`.
double tail_value(std::vector<double>& v, double wanted, double* used);

/// Round-robin placement of a single-caller workload over the CPUs the
/// process may use (at most four). The caller calls next() between equal
/// units of work, so its time averages over every core's share of
/// interference from other load on the host instead of riding one core's.
/// Restores the thread's CPU mask on destruction, so threads started later
/// are not confined to one CPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  cpu_set_t original_;
  bool have_original_ = false;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Process peak resident set (VmHWM) in MiB, 0 where /proc is absent.
double peak_rss_mb();

/// Writes spans as Chrome trace-event JSON ("ph":"X" complete events, one
/// "id" argument per operation), timestamps relative to the earliest span.
/// Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names);

/// One workload's (or one traced section's) outcome.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< correctness checks that failed

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a correctness check; a false `ok` marks the result incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  /// Folds another section's checks, counts and metrics into this one.
  void merge(const Result& other);
};

/// Host and build provenance as one JSON object.
std::string host_provenance_json();

}  // namespace perfbench
