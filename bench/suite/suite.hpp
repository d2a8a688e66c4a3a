// suite.hpp — the benches registered with the unified mobiwlan-bench driver.
//
// Each ported bench is a BenchDef: a name the CLI filters on and a run
// function that fans trials out through a runtime::Experiment and records
// metrics/text into a runtime::BenchReport. The standalone per-figure
// binaries forward to run_standalone() so both entry points execute the
// exact same trial code.
#pragma once

#include <string>
#include <vector>

#include "core/mobility_mode.hpp"
#include "fault/fault.hpp"
#include "fidelity/fidelity.hpp"
#include "runtime/experiment.hpp"
#include "runtime/report.hpp"

namespace mobiwlan::benchsuite {

/// One bench registered with the driver.
struct BenchDef {
  std::string name;         ///< CLI name, e.g. "table1"
  std::string description;  ///< one-line summary shown by --list
  std::function<void(runtime::Experiment&, runtime::BenchReport&)> run;
};

/// All benches ported onto the runtime runner, in registration order.
const std::vector<BenchDef>& registry();

/// One timed measurement from a perf case.
struct PerfResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;  ///< 0 unless the counting hook is linked
};

/// One hot-path microbenchmark run by `mobiwlan-bench --perf`.
///
/// Perf cases are timing-based by nature, so they live in a separate
/// registry: the deterministic benches above must stay byte-identical across
/// worker counts, and perf numbers never appear in their JSON.
struct PerfCaseDef {
  std::string name;         ///< key used in BENCH_channel.json and the gate
  std::string description;  ///< one-line summary shown by --list
  std::function<PerfResult(double min_time_s)> run;
};

/// The registered perf cases (bench/suite/perf.cpp), in registration order.
const std::vector<PerfCaseDef>& perf_registry();

/// Runs one registered bench with the default seed and one worker per
/// hardware thread, printing its text output — the compatibility entry
/// point for the historical per-figure binaries. Returns a process exit
/// code (1 if `name` is not registered).
int run_standalone(const std::string& name);

/// printf-style formatting into a std::string (bench text assembly).
std::string strf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The banner every bench opens its text output with.
std::string banner_text(const std::string& figure,
                        const std::string& expectation);

// The registered benches (one definition per suite/*.cpp file).
BenchDef table1_bench();
BenchDef fig9_bench();
BenchDef fig13_bench();

/// One RA scheme over one channel seed (fig9.cpp) — shared with the
/// fidelity suite so the gate replays exactly the bench's trial code. The
/// fault-tolerance suite passes a non-zero `fault` plan; the default
/// (all-zero) plan is bitwise-identical to the historical signature.
double fig9_run_scheme(const std::string& scheme, std::uint64_t seed,
                       MobilityClass cls, const FaultPlan& fault = {});

/// One gated suite run by `mobiwlan-bench --suite NAME`: a deterministic
/// FidelityReport checked against the committed flat-JSON baseline
/// `ci/<name>_baseline.json` (negative control
/// `ci/<name>_baseline_negative.json`) and written to `BENCH_<name>.json`.
/// For a fixed Experiment seed every report byte outside lines matching
/// `"timing` is identical at any worker count.
struct GatedSuiteDef {
  std::string name;         ///< CLI name; also names the baseline and report
  std::string description;  ///< one-line summary shown by --list
  std::function<fidelity::FidelityReport(runtime::Experiment&)> run;
};

/// The gated suites, in registration order.
const std::vector<GatedSuiteDef>& gated_registry();

/// Re-runs the core experiments (Table 1, Fig 2, Fig 4, Fig 9) and records
/// the statistics the paper-fidelity gate asserts on (fidelity.cpp).
fidelity::FidelityReport run_fidelity_report(runtime::Experiment& exp);

/// Fault tolerance (fault.cpp): Table-1 accuracy vs CSI+ToF drop rate,
/// Fig-9 / Fig-13 aware-over-stock ratios under export loss, motion-aware
/// roaming under 30% ToF loss, and the exact zero-fault identity probe.
fidelity::FidelityReport run_fault_report(runtime::Experiment& exp);

/// Record/replay determinism (trace.cpp): every protocol loop recorded live
/// and replayed strictly, fault composition onto replay, the arXiv
/// 2002.03905 pitfall probes and a CSV import round-trip.
fidelity::FidelityReport run_trace_report(runtime::Experiment& exp);

/// Campus shard invariance (campus.cpp): one 1024-AP / 100k-session churn
/// scenario under 1/4/16 shards plus a 16-shard single-worker cross-check,
/// every shard-invariant observable compared exactly. Each campus run uses
/// `exp.pool().size()` workers.
fidelity::FidelityReport run_campus_report(runtime::Experiment& exp);

/// Large-campus mode (`--suite campus --campus-sessions N`): ONE {4 shards,
/// pool-size workers} run at N sessions reporting conservation, peak RSS and
/// throughput; no invariance matrix, no baseline gate. Sets `ok` to false if
/// session conservation breaks or peak RSS exceeds `rss_budget_mb` (0 = off).
fidelity::FidelityReport run_campus_large_report(runtime::Experiment& exp,
                                                 std::uint64_t sessions,
                                                 double rss_budget_mb,
                                                 bool& ok);

/// CSI-fingerprint localization (loc.cpp): parallel survey of a 10^4-cell
/// database, held-out kNN/fused accuracy, the mobility-gated refresh
/// ablation and the single-thread lookup-rate section.
fidelity::FidelityReport run_loc_report(runtime::Experiment& exp);

/// `mobiwlan-bench --scale` configuration (bench/suite/scale.cpp).
struct ScaleOptions {
  std::size_t jobs = 1;       ///< pool workers for the agreement/shard passes
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  double min_time_s = 1.0;    ///< per timing measurement
  bool check = false;         ///< gate against the baseline's gate_scale_* keys
  std::string out = "BENCH_scale.json";
  std::string baseline = "ci/perf_baseline.json";
};

/// The AP-scale throughput bench: 64 APs x 512 clients, bitwise
/// sample_range-vs-sample_link equivalence + throughput + thread-scaling ladder + steady-state alloc
/// count. Everything in the JSON except `timing_*` keys is byte-identical
/// across `jobs`. Returns a process exit code.
int run_scale_bench(const ScaleOptions& opt);

}  // namespace mobiwlan::benchsuite
