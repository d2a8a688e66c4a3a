// mobiwlan-bench — unified driver for the benches ported onto src/runtime/.
//
//   mobiwlan-bench --list                 enumerate benches, perf cases and
//                                         gated suites
//   mobiwlan-bench                        run every bench (default seed/jobs)
//   mobiwlan-bench --filter fig1          run the bench named fig1, or, if no
//                                         name equals the filter, every bench
//                                         whose name contains it (ablation)
//   mobiwlan-bench --jobs 8 --seed 42     worker count / master seed
//   mobiwlan-bench --json out.json        write the structured run report
//   mobiwlan-bench --no-job-timing        omit per-job arrays from the JSON
//
//   mobiwlan-bench --suite NAME           run a gated suite (fidelity, fault,
//                                         trace, campus, loc) and write
//                                         BENCH_<NAME>.json
//   mobiwlan-bench --suite NAME --check   also gate against the committed
//                                         baseline ci/<NAME>_baseline.json
//   mobiwlan-bench --suite NAME --check-only REPORT
//                                         re-check an existing report, no
//                                         re-run
//   mobiwlan-bench --suite campus --campus-sessions N
//                 [--campus-rss-budget-mb MB]
//                                         large-campus mode: one 4-shard run
//                                         at N sessions (conservation + RSS
//                                         evidence), no baseline gate
//
//   mobiwlan-bench --perf [--check]       hot-path perf cases ->
//                                         BENCH_channel.json, gated against
//                                         ci/perf_baseline.json
//
// --out PATH and --baseline PATH override the report and baseline paths of
// --suite and --perf.
//
// Determinism contract: for a fixed --seed, the printed tables and every
// non-"timing" byte of the bench JSON and of every gated-suite report are
// identical for --jobs 1 and --jobs N. Perf cases are timing-based and
// therefore live entirely behind --perf; they never contribute to the
// deterministic JSON above.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fidelity/fidelity.hpp"
#include "runtime/experiment.hpp"
#include "runtime/report.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/flatjson.hpp"
#include "util/simd.hpp"

namespace {

using mobiwlan::load_flat_json;
using mobiwlan::benchsuite::BenchDef;
using mobiwlan::benchsuite::GatedSuiteDef;
using mobiwlan::benchsuite::PerfCaseDef;
using mobiwlan::benchsuite::PerfResult;
using mobiwlan::benchsuite::gated_registry;
using mobiwlan::benchsuite::perf_registry;
using mobiwlan::benchsuite::registry;
using mobiwlan::benchsuite::strf;
namespace fidelity = mobiwlan::fidelity;
namespace runtime = mobiwlan::runtime;

void print_usage() {
  std::printf(
      "usage: mobiwlan-bench [--list] [--filter NAME] [--jobs N] [--seed S]\n"
      "                      [--json PATH] [--no-job-timing]\n"
      "       mobiwlan-bench --suite NAME [--check | --check-only REPORT]\n"
      "                      [--out PATH] [--baseline PATH] [--jobs N] "
      "[--seed S]\n"
      "                      [--campus-sessions N [--campus-rss-budget-mb "
      "MB]]\n"
      "       mobiwlan-bench --perf [--check] [--out PATH] [--baseline PATH]\n"
      "                      [--perf-min-time SECONDS]\n"
      "--filter NAME runs the bench named NAME or, if no bench has that name,\n"
      "every bench whose name contains NAME\n"
      "suites:");
  for (const GatedSuiteDef& def : gated_registry())
    std::printf(" %s", def.name.c_str());
  std::printf("\n");
}

struct Options {
  bool list = false;
  bool job_timing = true;
  bool perf = false;
  bool check = false;
  std::string suite;       // --suite NAME
  std::string check_only;  // re-check this existing suite report
  std::string out;         // empty = the mode's default report path
  std::string baseline;    // empty = the mode's default baseline path
  std::string filter;
  std::string json_path;
  std::uint64_t campus_sessions = 0;  // nonzero: large-campus single run
  double campus_rss_budget_mb = 0.0;  // large mode: peak-RSS bound (0 = off)
  // Empty when the flag was not given (--jobs 0 is a legal value), so a
  // mode it does not reach can refuse it instead of ignoring it. Each
  // default is applied where the value is read.
  std::optional<double> perf_min_time;      // default 1 s
  std::optional<std::size_t> jobs;          // 0 = one worker per hw thread
  std::optional<std::uint64_t> seed;        // default runtime::kMasterSeed
};

/// A base-10 integer flag value in [lo, hi]: digits only (no sign, no
/// whitespace, no trailing bytes) and no overflow.
bool parse_uint(const char* flag, const char* v, std::uint64_t lo,
                std::uint64_t hi, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
      errno == ERANGE || x < lo || x > hi) {
    std::fprintf(stderr,
                 "mobiwlan-bench: %s expects an integer in [%llu, %llu], got "
                 "'%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), v);
    return false;
  }
  out = x;
  return true;
}

/// A finite decimal flag value in (0, hi], with no trailing bytes.
bool parse_positive(const char* flag, const char* v, double hi, double& out) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  const bool starts_ok =
      std::isdigit(static_cast<unsigned char>(v[0])) || v[0] == '.';
  if (!starts_ok || *end != '\0' || !std::isfinite(x) || x <= 0.0 || x > hi) {
    std::fprintf(stderr,
                 "mobiwlan-bench: %s expects a number in (0, %g], got '%s'\n",
                 flag, hi, v);
    return false;
  }
  out = x;
  return true;
}

const GatedSuiteDef* find_suite(const std::string& name) {
  for (const GatedSuiteDef& def : gated_registry())
    if (def.name == name) return &def;
  return nullptr;
}

/// Cross-flag rules, checked once every flag is read.
bool validate(const Options& opt) {
  const auto fail = [](const char* msg) {
    std::fprintf(stderr, "mobiwlan-bench: %s\n", msg);
    return false;
  };
  if (opt.perf && !opt.suite.empty())
    return fail("--perf and --suite are exclusive");
  if (opt.perf && (opt.jobs.has_value() || opt.seed.has_value()))
    return fail("--jobs/--seed do not apply to --perf: each perf case fixes "
                "its own workers and inputs");
  if (opt.perf_min_time.has_value() && !opt.perf)
    return fail("--perf-min-time needs --perf");
  if ((opt.perf || !opt.suite.empty()) &&
      (!opt.filter.empty() || !opt.json_path.empty() || !opt.job_timing))
    return fail("--filter/--json/--no-job-timing apply only to the bench "
                "registry, not to --suite or --perf");
  if (!opt.perf && opt.suite.empty() &&
      (opt.check || !opt.check_only.empty() || !opt.out.empty() ||
       !opt.baseline.empty()))
    return fail("--check/--check-only/--out/--baseline need --suite or "
                "--perf");
  if (!opt.check_only.empty() && opt.suite.empty())
    return fail("--check-only needs --suite");
  if (!opt.suite.empty() && !find_suite(opt.suite)) {
    std::fprintf(stderr, "mobiwlan-bench: unknown suite '%s'\n",
                 opt.suite.c_str());
    print_usage();
    return false;
  }
  if ((opt.campus_sessions || opt.campus_rss_budget_mb > 0.0) &&
      opt.suite != "campus")
    return fail("--campus-sessions/--campus-rss-budget-mb need --suite campus");
  if (opt.campus_rss_budget_mb > 0.0 && !opt.campus_sessions)
    return fail("--campus-rss-budget-mb needs --campus-sessions");
  if (opt.campus_sessions && (opt.check || !opt.check_only.empty()))
    return fail("large-campus mode (--campus-sessions) has no baseline gate");
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mobiwlan-bench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto string_flag = [&](std::string& dst) {
      const char* v = value();
      if (v) dst = v;
      return v != nullptr;
    };
    auto uint_flag = [&](std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t& dst) {
      const char* v = value();
      return v && parse_uint(flag, v, lo, hi, dst);
    };
    auto positive_flag = [&](double hi, double& dst) {
      const char* v = value();
      return v && parse_positive(flag, v, hi, dst);
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--no-job-timing") {
      opt.job_timing = false;
    } else if (arg == "--perf") {
      opt.perf = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--suite") {
      if (!string_flag(opt.suite)) return false;
    } else if (arg == "--check-only") {
      if (!string_flag(opt.check_only)) return false;
    } else if (arg == "--out") {
      if (!string_flag(opt.out)) return false;
    } else if (arg == "--baseline") {
      if (!string_flag(opt.baseline)) return false;
    } else if (arg == "--filter") {
      if (!string_flag(opt.filter)) return false;
    } else if (arg == "--json") {
      if (!string_flag(opt.json_path)) return false;
    } else if (arg == "--campus-sessions") {
      if (!uint_flag(1, 100'000'000, opt.campus_sessions)) return false;
    } else if (arg == "--campus-rss-budget-mb") {
      if (!positive_flag(1e7, opt.campus_rss_budget_mb)) return false;
    } else if (arg == "--perf-min-time") {
      double min_time = 0.0;
      if (!positive_flag(3600.0, min_time)) return false;
      opt.perf_min_time = min_time;
    } else if (arg == "--jobs") {
      std::uint64_t jobs = 0;
      if (!uint_flag(0, 1024, jobs)) return false;
      opt.jobs = static_cast<std::size_t>(jobs);
    } else if (arg == "--seed") {
      std::uint64_t seed = 0;
      if (!uint_flag(0, UINT64_MAX, seed)) return false;
      opt.seed = seed;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "mobiwlan-bench: unknown flag %s\n", arg.c_str());
      print_usage();
      return false;
    }
  }
  return validate(opt);
}

/// --jobs, where absent or 0 means one worker per hardware thread.
std::size_t resolve_jobs(const Options& opt) {
  if (const std::size_t jobs = opt.jobs.value_or(0)) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

std::string or_default(const std::string& v, std::string def) {
  return v.empty() ? def : v;
}

/// Runs the perf cases, writes the flat BENCH report, and optionally gates
/// against the baseline's gate_* values.
int run_perf(const Options& opt) {
  const std::string out_path = or_default(opt.out, "BENCH_channel.json");
  const std::string baseline_path =
      or_default(opt.baseline, "ci/perf_baseline.json");
  const auto baseline = load_flat_json(baseline_path);
  if (!baseline.empty()) {
    std::printf("perf: baseline %s (%zu keys)\n", baseline_path.c_str(),
                baseline.size());
  } else if (opt.check) {
    // A mistyped path must not turn every gate into a skip.
    std::fprintf(stderr, "mobiwlan-bench: no perf baseline at %s\n",
                 baseline_path.c_str());
    return 1;
  } else {
    std::printf("perf: no baseline at %s (measuring only)\n",
                baseline_path.c_str());
  }
  if (!mobiwlan::alloc_hook_active())
    std::printf("perf: warning: alloc hook not linked, allocs/op will read 0\n");

  const double min_time = opt.perf_min_time.value_or(1.0);
  std::vector<PerfResult> results;
  for (const PerfCaseDef& def : perf_registry()) {
    PerfResult r = def.run(min_time);
    std::printf("  %-22s %12.1f ns/op  %12.0f ops/s  %6.2f allocs/op",
                r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op);
    if (r.speedup > 0.0) std::printf("  %.2fx speedup", r.speedup);
    std::printf("\n");
    results.push_back(std::move(r));
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"channel_perf\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"min_time_s\": %g,\n", min_time);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"alloc_hook_active\": %d,\n",
                mobiwlan::alloc_hook_active() ? 1 : 0);
  out << buf;
  for (const PerfResult& r : results) {
    std::snprintf(buf, sizeof buf, "  \"%s_ns\": %.1f,\n", r.name.c_str(),
                  r.ns_per_op);
    out << buf;
    std::snprintf(buf, sizeof buf, "  \"%s_ops_per_sec\": %.0f,\n",
                  r.name.c_str(), r.ops_per_sec);
    out << buf;
    std::snprintf(buf, sizeof buf, "  \"%s_allocs\": %.6g,\n", r.name.c_str(),
                  r.allocs_per_op);
    out << buf;
    if (r.speedup > 0.0) {
      std::snprintf(buf, sizeof buf, "  \"%s_speedup\": %.2f,\n",
                    r.name.c_str(), r.speedup);
      out << buf;
    }
  }
  // Host-capability and tier provenance, quarantined on timing_* keys (the
  // same convention the determinism diffs filter on), so perf baselines are
  // comparable across hosts.
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx2\": %d,\n",
                mobiwlan::simd::avx2fma_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx512\": %d,\n",
                mobiwlan::simd::avx512_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_simd_tier\": %d,\n",
                static_cast<int>(mobiwlan::simd::active_tier()));
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_precision_fp32\": %d,\n",
                mobiwlan::simd::active_precision() ==
                        mobiwlan::simd::Precision::kFloat32
                    ? 1
                    : 0);
  out << buf;
  out << "  \"end\": 0\n}\n";
  out.close();
  std::printf("wrote %s (%zu cases)\n", out_path.c_str(), results.size());

  if (!opt.check) return 0;

  // Gate: each case must stay within (1 + tolerance) of its committed
  // gate_<case>_ns; must not allocate more than gate_<case>_allocs (a gate
  // of 0 is exact, a nonzero one gets +0.5 slack for amortized one-off
  // growth); and a paired case must reach gate_<case>_min_speedup, except
  // on the scalar tier, which the ratio floor does not describe. Missing
  // gate keys are reported, not fatal, so new cases can land before the
  // baseline is refreshed.
  const auto tol_it = baseline.find("tolerance");
  const double tol = tol_it != baseline.end() ? tol_it->second : 0.25;
  const auto gate = [&](const PerfResult& r,
                        const char* suffix) -> std::optional<double> {
    const auto it = baseline.find("gate_" + r.name + suffix);
    if (it == baseline.end()) return std::nullopt;
    return it->second;
  };
  const auto tier = mobiwlan::simd::active_tier();
  bool ok = true;
  for (const PerfResult& r : results) {
    const auto gate_ns = gate(r, "_ns");
    const auto gate_allocs = gate(r, "_allocs");
    const auto gate_speedup = gate(r, "_min_speedup");
    if (!gate_ns && !gate_allocs && !gate_speedup) {
      std::printf("perf-check: %-22s no gate_%s_* in baseline, skipped\n",
                  r.name.c_str(), r.name.c_str());
      continue;
    }
    bool case_ok = true;
    std::string detail;
    const auto note = [&](const std::string& part) {
      detail += (detail.empty() ? "" : ", ") + part;
    };
    if (gate_ns) {
      const double limit = *gate_ns * (1.0 + tol);
      case_ok = case_ok && r.ns_per_op <= limit;
      note(strf("%.1f ns/op vs limit %.1f", r.ns_per_op, limit));
    }
    if (gate_allocs) {
      const double limit = *gate_allocs == 0.0 ? 0.0 : *gate_allocs + 0.5;
      if (mobiwlan::alloc_hook_active())
        case_ok = case_ok && r.allocs_per_op <= limit;
      note(strf("%.6g allocs/op vs limit %g", r.allocs_per_op, limit));
    }
    if (gate_speedup && tier == mobiwlan::simd::Tier::kScalar) {
      std::fprintf(stderr,
                   "perf-check: %s speedup gate SKIPPED — the active SIMD "
                   "tier is scalar; the %.2fx floor does not apply to it\n",
                   r.name.c_str(), *gate_speedup);
      note("speedup floor skipped on the scalar tier");
    } else if (gate_speedup) {
      case_ok = case_ok && r.speedup >= *gate_speedup;
      note(strf("%.2fx speedup vs floor %.2fx (%s tier)", r.speedup,
                *gate_speedup, mobiwlan::simd::tier_name(tier)));
    }
    std::printf("perf-check: %-22s %s  (%s)\n", r.name.c_str(),
                case_ok ? "ok" : "REGRESSION", detail.c_str());
    ok = ok && case_ok;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "mobiwlan-bench: perf regression past %.0f%% tolerance "
                 "(baseline %s)\n",
                 100.0 * tol, baseline_path.c_str());
    return 1;
  }
  std::printf("perf-check: all cases within %.0f%% of baseline\n", 100.0 * tol);
  return 0;
}

/// Checks a suite report against a baseline and prints the verdict table.
/// Returns the process exit code.
int check_suite(const std::string& name, const fidelity::FidelityReport& rep,
                std::uint64_t run_seed,
                const std::map<std::string, double>& baseline,
                const std::string& baseline_path,
                fidelity::CheckResult& check) {
  check = rep.check(baseline, run_seed);
  std::printf("\n%s-check against %s (seed %llu):\n", name.c_str(),
              baseline_path.c_str(),
              static_cast<unsigned long long>(run_seed));
  std::fputs(fidelity::render_check(check).c_str(), stdout);
  if (!check.pass()) {
    std::fprintf(stderr, "mobiwlan-bench: %s gate FAILED (baseline %s)\n",
                 name.c_str(), baseline_path.c_str());
    return 1;
  }
  std::printf("%s-check: all bounds hold\n", name.c_str());
  return 0;
}

/// `--suite NAME`: run the suite, write BENCH_<NAME>.json, optionally gate.
/// `--check` vets the baseline before the run, as `--perf --check` does
/// before measuring. `--check-only REPORT` re-checks an existing report.
int run_suite(const GatedSuiteDef& def, const Options& opt) {
  const std::string baseline_path =
      or_default(opt.baseline, "ci/" + def.name + "_baseline.json");
  const bool gated = opt.check || !opt.check_only.empty();
  std::map<std::string, double> baseline;
  if (gated) {
    // A mistyped path must not turn the gate into a pass.
    baseline = load_flat_json(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "mobiwlan-bench: no %s baseline at %s\n",
                   def.name.c_str(), baseline_path.c_str());
      return 1;
    }
  }
  if (!opt.check_only.empty()) {
    const auto doc = load_flat_json(opt.check_only);
    if (doc.empty()) {
      std::fprintf(stderr, "mobiwlan-bench: cannot read %s report %s\n",
                   def.name.c_str(), opt.check_only.c_str());
      return 1;
    }
    std::uint64_t seed = 0;
    const fidelity::FidelityReport rep =
        fidelity::report_from_flat_json(doc, seed);
    fidelity::CheckResult check;
    return check_suite(def.name, rep, seed, baseline, baseline_path, check);
  }

  const std::uint64_t seed = opt.seed.value_or(runtime::kMasterSeed);
  // Refuse a seed the baseline's seed policy rejects before the run.
  if (gated && !fidelity::FidelityReport().check(baseline, seed).seed_ok) {
    std::fprintf(stderr, "mobiwlan-bench: %s baseline %s refuses seed %llu\n",
                 def.name.c_str(), baseline_path.c_str(),
                 static_cast<unsigned long long>(seed));
    return 1;
  }
  runtime::ThreadPool pool(resolve_jobs(opt));
  runtime::BenchReport bench_report;
  bench_report.name = def.name;
  runtime::Experiment exp(pool, seed, &bench_report);
  std::printf("%s: %s (seed %llu, %zu workers)\n", def.name.c_str(),
              def.description.c_str(), static_cast<unsigned long long>(seed),
              pool.size());
  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  const fidelity::FidelityReport rep =
      opt.campus_sessions
          ? mobiwlan::benchsuite::run_campus_large_report(
                exp, opt.campus_sessions, opt.campus_rss_budget_mb, ok)
          : def.run(exp);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const auto& [key, v] : rep.metrics())
    std::printf("  %-44s %.6g\n", key.c_str(), v);
  std::printf("[%s: %zu jobs on %zu workers, %.2fs wall]\n", def.name.c_str(),
              bench_report.jobs.size(), pool.size(), wall_s);

  fidelity::CheckResult check;
  int rc = ok ? 0 : 1;
  if (opt.check)
    rc = check_suite(def.name, rep, seed, baseline, baseline_path, check);

  const std::string out_path =
      or_default(opt.out, "BENCH_" + def.name + ".json");
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << rep.to_json(seed, wall_s, opt.check ? &check : nullptr);
  out.close();
  std::printf("wrote %s (%zu metrics)\n", out_path.c_str(),
              rep.metrics().size());
  return rc;
}

/// The default mode: run the bench named by --filter or, when no name equals
/// it, every registered bench whose name contains it.
int run_benches(const Options& opt) {
  std::vector<const BenchDef*> selected;
  for (const BenchDef& def : registry())
    if (def.name == opt.filter) selected.push_back(&def);
  if (selected.empty())
    for (const BenchDef& def : registry())
      if (def.name.find(opt.filter) != std::string::npos)
        selected.push_back(&def);
  if (selected.empty()) {
    std::fprintf(stderr, "mobiwlan-bench: no bench matches --filter '%s'\n",
                 opt.filter.c_str());
    return 1;
  }

  const std::uint64_t seed = opt.seed.value_or(runtime::kMasterSeed);
  runtime::ThreadPool pool(resolve_jobs(opt));
  runtime::RunReport run;
  run.master_seed = seed;
  run.workers = pool.size();

  const auto run_start = std::chrono::steady_clock::now();
  for (const BenchDef* def : selected) {
    runtime::BenchReport report;
    report.name = def->name;
    report.description = def->description;
    runtime::Experiment exp(pool, seed, &report);
    const auto start = std::chrono::steady_clock::now();
    def->run(exp, report);
    report.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::fputs(report.text.c_str(), stdout);
    std::printf("\n[%s: %zu jobs on %zu workers, %.2fs wall, %.0f%% "
                "utilization, mean queue wait %.1f ms]\n",
                report.name.c_str(), report.jobs.size(), report.workers,
                report.wall_s, 100.0 * report.worker_utilization(),
                1e3 * report.mean_queue_wait_s());
    run.benches.push_back(std::move(report));
  }
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    out << run.to_json(opt.job_timing);
    std::printf("\nwrote %s (%zu benches)\n", opt.json_path.c_str(),
                run.benches.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (opt.list) {
    for (const BenchDef& def : registry())
      std::printf("%-18s %s\n", def.name.c_str(), def.description.c_str());
    for (const PerfCaseDef& def : perf_registry())
      std::printf("%-18s [perf] %s\n", def.name.c_str(),
                  def.description.c_str());
    for (const GatedSuiteDef& def : gated_registry())
      std::printf("%-18s [suite] %s\n", def.name.c_str(),
                  def.description.c_str());
    return 0;
  }

  try {
    if (opt.perf) return run_perf(opt);
    if (!opt.suite.empty()) return run_suite(*find_suite(opt.suite), opt);
    return run_benches(opt);
  } catch (const mobiwlan::FlatJsonError& e) {
    // A malformed baseline or report must fail the gate, never weaken it.
    std::fprintf(stderr, "mobiwlan-bench: %s\n", e.what());
    return 1;
  }
}
