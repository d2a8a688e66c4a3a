#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(hi - lo, 0) - covered;
  }
  return self;
}

std::int64_t total_self_ns(const std::vector<Span>& spans,
                           const std::vector<std::int64_t>& self,
                           const std::string& name) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (name == spans[i].name) total += self[i];
  return total;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= 10.0) best = p;
  }
  return best;
}

double tail_value(std::vector<double>& v, double wanted, double* used) {
  double p = std::min(wanted, tail_percentile(v.size()));
  if (p <= 0.0) p = 50.0;  // too few samples for any tail: report the median
  if (used) *used = p;
  return quantile(v, p / 100.0);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  have_original_ = sched_getaffinity(0, sizeof original_, &original_) == 0;
  if (!have_original_) return;
  for (int c = 0; c < CPU_SETSIZE && cpus_.size() < 4; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (have_original_) (void)sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::int64_t t0 = 0;
  bool have_t0 = false;
  for (const Span& s : spans) {
    if (!have_t0 || s.start_ns < t0) t0 = s.start_ns;
    have_t0 = true;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t p = 0; p < track_names.size(); ++p) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", p, track_names[p].c_str());
    first = false;
  }
  for (const Span& s : spans) {
    const std::int64_t end = std::max(s.end_ns, s.start_ns);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 first ? "" : ",\n", s.name, s.track,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Result::merge(const Result& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
}

}  // namespace perfbench
