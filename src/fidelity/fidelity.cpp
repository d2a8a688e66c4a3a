#include "fidelity/fidelity.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "runtime/report.hpp"  // json_escape / json_double

namespace mobiwlan::fidelity {

namespace {

/// Baseline / report keys that are bookkeeping, not metrics or bounds. (The
/// `"timing"` object never reaches here: the flat-JSON loader drops nested
/// objects.)
bool is_reserved_key(const std::string& key) {
  return key == "seed" || key == "schema_fidelity" ||
         key.rfind("assert.", 0) == 0;
}

/// Splits a baseline key into (metric, kind) if it ends in .min or .max.
std::optional<std::pair<std::string, Assertion::Kind>> parse_bound_key(
    const std::string& key) {
  const auto dot = key.rfind('.');
  if (dot == std::string::npos) return std::nullopt;
  const std::string suffix = key.substr(dot + 1);
  if (suffix == "min")
    return std::make_pair(key.substr(0, dot), Assertion::Kind::kMin);
  if (suffix == "max")
    return std::make_pair(key.substr(0, dot), Assertion::Kind::kMax);
  return std::nullopt;
}

}  // namespace

void FidelityReport::add(std::string id, double value) {
  metrics_.emplace_back(std::move(id), value);
}

std::optional<double> FidelityReport::value(const std::string& id) const {
  for (const auto& [key, v] : metrics_)
    if (key == id) return v;
  return std::nullopt;
}

CheckResult FidelityReport::check(const std::map<std::string, double>& baseline,
                                  std::uint64_t run_seed) const {
  CheckResult out;
  const auto seed_it = baseline.find("seed");
  if (seed_it != baseline.end()) {
    out.baseline_seed = static_cast<std::uint64_t>(seed_it->second);
    out.seed_ok = out.baseline_seed == run_seed;
  } else {
    out.baseline_seed = run_seed;
  }
  for (const auto& [key, bound] : baseline) {
    if (is_reserved_key(key)) continue;
    const auto parsed = parse_bound_key(key);
    if (!parsed) continue;
    Assertion a;
    a.metric = parsed->first;
    a.kind = parsed->second;
    a.bound = bound;
    a.measured = value(a.metric);
    a.pass = a.measured.has_value() &&
             (a.kind == Assertion::Kind::kMin ? *a.measured >= a.bound
                                              : *a.measured <= a.bound);
    if (!a.pass) ++out.failed;
    out.assertions.push_back(std::move(a));
  }
  return out;
}

std::string FidelityReport::to_json(std::uint64_t seed, double wall_s,
                                    const CheckResult* check) const {
  using runtime::json_double;
  using runtime::json_escape;
  std::ostringstream os;
  os << "{\n  \"schema_fidelity\": " << kSchemaVersion << ",\n  \"seed\": "
     << seed << ",\n";
  for (const auto& [key, v] : metrics_)
    os << "  \"" << json_escape(key) << "\": " << json_double(v) << ",\n";
  if (check) {
    for (const auto& a : check->assertions) {
      const char* kind = a.kind == Assertion::Kind::kMin ? "min" : "max";
      os << "  \"assert." << json_escape(a.metric) << "." << kind
         << ".bound\": " << json_double(a.bound) << ",\n";
      os << "  \"assert." << json_escape(a.metric) << "." << kind
         << ".pass\": " << (a.pass ? 1 : 0) << ",\n";
    }
    os << "  \"assert.seed_ok\": " << (check->seed_ok ? 1 : 0) << ",\n";
    os << "  \"assert.failed\": " << check->failed << ",\n";
  }
  // Wall time is the only nondeterministic value; one line, same contract
  // as the bench RunReport ("grep -v '\"timing\":'" strips it).
  os << "  \"timing\": {\"wall_s\": " << json_double(wall_s) << "}\n}\n";
  return os.str();
}

FidelityReport report_from_flat_json(const std::map<std::string, double>& doc,
                                     std::uint64_t& seed_out) {
  FidelityReport report;
  seed_out = 0;
  const auto seed_it = doc.find("seed");
  if (seed_it != doc.end())
    seed_out = static_cast<std::uint64_t>(seed_it->second);
  for (const auto& [key, v] : doc) {
    if (is_reserved_key(key)) continue;
    report.add(key, v);
  }
  return report;
}

std::string render_check(const CheckResult& check) {
  std::ostringstream os;
  char buf[256];
  for (const auto& a : check.assertions) {
    const char* rel = a.kind == Assertion::Kind::kMin ? ">=" : "<=";
    if (a.measured) {
      std::snprintf(buf, sizeof buf, "  %-44s %10.4f %s %-10.4f %s\n",
                    a.metric.c_str(), *a.measured, rel, a.bound,
                    a.pass ? "ok" : "FAIL");
    } else {
      std::snprintf(buf, sizeof buf, "  %-44s %10s %s %-10.4f %s\n",
                    a.metric.c_str(), "missing", rel, a.bound, "FAIL");
    }
    os << buf;
  }
  if (check.assertions.empty())
    os << "  baseline has no <metric>.min / <metric>.max bounds  FAIL\n";
  if (!check.seed_ok) {
    std::snprintf(buf, sizeof buf,
                  "  seed policy: run seed differs from baseline seed %llu "
                  "(bounds are calibrated at that seed)  FAIL\n",
                  static_cast<unsigned long long>(check.baseline_seed));
    os << buf;
  }
  std::snprintf(buf, sizeof buf, "  %zu/%zu assertions passed\n",
                check.assertions.size() - check.failed,
                check.assertions.size());
  os << buf;
  return os.str();
}

int count_monotone_runs(const std::vector<double>& xs, std::size_t min_steps,
                        double min_change) {
  if (xs.size() < 2) return 0;
  int runs = 0;
  std::size_t start = 0;
  int dir = 0;
  const auto close_run = [&](std::size_t end) {
    if (end - start >= min_steps && std::abs(xs[end] - xs[start]) >= min_change)
      ++runs;
  };
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const int d = xs[i] > xs[i - 1] ? 1 : (xs[i] < xs[i - 1] ? -1 : dir);
    if (d != dir && dir != 0) {
      close_run(i - 1);
      start = i - 1;
    }
    dir = d;
  }
  close_run(xs.size() - 1);
  return runs;
}

}  // namespace mobiwlan::fidelity
