// suite.hpp — the benches registered with the unified mobiwlan-bench driver.
//
// Every paper table, figure and ablation is a BenchDef: a name the CLI
// filters on and a run function that fans trials out through a
// runtime::Experiment and records metrics/text into a runtime::BenchReport.
// The gated suites reuse the figures' trial functions declared below, so a
// gate replays exactly the code its figure runs.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chan/scenario.hpp"
#include "core/mobility_mode.hpp"
#include "fault/fault.hpp"
#include "fidelity/fidelity.hpp"
#include "runtime/experiment.hpp"
#include "runtime/report.hpp"
#include "util/rng.hpp"

namespace mobiwlan::benchsuite {

/// One bench registered with the driver.
struct BenchDef {
  std::string name;         ///< CLI name, e.g. "table1"
  std::string description;  ///< one-line summary shown by --list
  std::function<void(runtime::Experiment&, runtime::BenchReport&)> run;
};

/// Every bench, in paper order (tables and figures, then the ablations).
const std::vector<BenchDef>& registry();

/// One timed measurement from a perf case.
struct PerfResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;  ///< 0 unless the counting hook is linked
  double speedup = 0.0;  ///< paired cases: reference / measured time; else 0
  /// The speedup compares SIMD kernels, so the scalar tier checks
  /// gate_<case>_scalar_min_speedup instead of the floor, or skips it.
  bool simd_ratio = false;
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

/// printf-style formatting into a std::string (bench text assembly).
std::string strf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The banner every bench opens its text output with.
std::string banner_text(const std::string& figure,
                        const std::string& expectation);

/// Runs `body` as one job on Rng(exp.master_seed()) and returns its text:
/// for benches whose every trial draws in sequence from one master
/// generator, so the draws cannot be split into independent jobs.
std::string sequential_text(runtime::Experiment& exp,
                            const std::function<std::string(Rng&)>& body);

/// `count` generators split in order from `master`: the rows of a
/// master-sequence bench, each then run as its own job.
std::vector<Rng> split_rows(Rng& master, std::size_t count);

// The registered benches. table1.cpp, fig9.cpp and fig13.cpp hold one
// bench each; classification.cpp the classifier-signal figures (1, 2, 4,
// 6); protocols.cpp the protocol figures (7, 8, 10, 11, 12) and Table 2;
// ablations.cpp the ablations.
void run_fig1(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig2(runtime::Experiment& exp, runtime::BenchReport& report);
void run_table1(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig4(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig6(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig7(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig8(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig9(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig10(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig11(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig12(runtime::Experiment& exp, runtime::BenchReport& report);
void run_fig13(runtime::Experiment& exp, runtime::BenchReport& report);
void run_table2(runtime::Experiment& exp, runtime::BenchReport& report);
void run_ablation_aoa(runtime::Experiment& exp, runtime::BenchReport& report);
void run_ablation_substrate(runtime::Experiment& exp,
                            runtime::BenchReport& report);
void run_ablation_roaming(runtime::Experiment& exp,
                          runtime::BenchReport& report);
void run_ablation_width(runtime::Experiment& exp, runtime::BenchReport& report);
void run_ablation_uplink(runtime::Experiment& exp,
                         runtime::BenchReport& report);
void run_ablation_latency(runtime::Experiment& exp,
                          runtime::BenchReport& report);
void run_ablation_scheduler(runtime::Experiment& exp,
                            runtime::BenchReport& report);

// ---- Trial code shared by the figures and the gated suites ---------------

/// The four coarse classes in display order.
inline constexpr MobilityClass kClasses[] = {
    MobilityClass::kStatic, MobilityClass::kEnvironmental, MobilityClass::kMicro,
    MobilityClass::kMacro};

/// Position of `c` in kClasses.
int class_index(MobilityClass c);

/// Correct seconds out of the seconds counted.
struct HitCounts {
  int hits = 0;
  int total = 0;
};

/// Per-second detections of one randomized-location trial, by class index.
struct ClassCounts {
  std::array<int, 4> detected{};
  int total = 0;
};

/// One Table-1 location (table1.cpp): a `cls` scenario drawn from the
/// trial's generator, classified once per second for `duration_s` after a
/// 10 s warmup.
ClassCounts classify_trial(MobilityClass cls, double duration_s,
                           runtime::Trial& trial);

/// One Table-1 heading walk (table1.cpp): even trial indices walk toward
/// the AP, odd ones away; counts the macro seconds with the right heading.
HitCounts heading_trial(runtime::Trial& trial);

/// Fig 2 (classification.cpp): Eq.-1 similarity of consecutive CSI samples
/// `period_s` apart over the first 15 s of one scenario drawn from `rng`
/// (an environmental scenario of activity `act` when given).
std::vector<double> similarity_trial(MobilityClass cls,
                                     std::optional<EnvironmentalActivity> act,
                                     double period_s, Rng& rng);

/// Fig 4 (classification.cpp): per-second ToF medians (the classifier's
/// working signal) over `duration_s` of a scenario.
std::vector<double> tof_median_series(Scenario& s, double duration_s);

/// Stream-id offset decorrelating fault substreams from the channel draws
/// that share a scenario seed (fault and trace suites).
inline constexpr std::uint64_t kFaultSalt = 0xFA17;

/// A CSI+ToF export-drop plan for the fault and trace suites, its fault
/// seed drawn from the scenario seed's kFaultSalt substream, so the fault
/// world is reproducible and independent of the channel draws.
FaultPlan export_drop_plan(double drop, std::uint64_t scenario_seed);

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

}  // namespace mobiwlan::benchsuite
