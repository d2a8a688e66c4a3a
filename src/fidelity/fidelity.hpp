// fidelity.hpp — the statistical paper-fidelity gate (tier-2 CI).
//
// EXPERIMENTS.md records the paper's headline shapes (Table 1 diagonal
// > 92%, Fig 2's Thr_sta/Thr_env separation, Fig 4's ToF ramps, Fig 9's
// scheme ordering); this module turns those prose claims into machine-
// checked assertions. A fidelity run re-executes the core experiments
// through the runtime Experiment sharder (bench/suite/fidelity.cpp),
// records named metrics into a FidelityReport, and checks them against the
// committed baseline ci/fidelity_baseline.json:
//
//   * every baseline key `<metric>.min` / `<metric>.max` is one assertion
//     (bound direction in the suffix); a bound on a missing metric fails,
//     and so does a baseline with no bounds at all;
//   * the baseline's `seed` key is the seed policy: bounds are calibrated
//     at the master seed, and a run at any other seed fails the check
//     rather than comparing apples to oranges;
//   * everything is deterministic (counter-based trial streams), so
//     BENCH_fidelity.json is byte-identical for any worker count outside
//     its single "timing" line — the same contract mobiwlan-bench's
//     deterministic JSON keeps.
//
// Refreshing the baseline after an intentional behaviour change mirrors the
// perf-gate procedure in DESIGN.md §5: re-run `mobiwlan-bench --suite
// fidelity`, inspect BENCH_fidelity.json, and copy the re-derived bounds in;
// the negative baseline (ci/fidelity_baseline_negative.json) must keep
// failing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mobiwlan::fidelity {

/// Baseline schema version written to / expected in the JSON documents.
inline constexpr int kSchemaVersion = 1;

/// One checked bound: `metric` must be >= (kMin) or <= (kMax) `bound`.
struct Assertion {
  enum class Kind { kMin, kMax };
  std::string metric;
  Kind kind = Kind::kMin;
  double bound = 0.0;
  /// Measured value; nullopt when the run produced no such metric (fails).
  std::optional<double> measured;
  bool pass = false;
};

/// Outcome of checking a report against a baseline.
struct CheckResult {
  std::vector<Assertion> assertions;  ///< baseline key order (sorted)
  bool seed_ok = true;                ///< run seed matches the baseline seed
  std::uint64_t baseline_seed = 0;
  std::size_t failed = 0;             ///< assertions with pass == false

  /// A baseline without a single bound asserts nothing, so it fails too.
  bool pass() const { return seed_ok && failed == 0 && !assertions.empty(); }
};

/// Named metrics produced by one fidelity run, in insertion order.
class FidelityReport {
 public:
  void add(std::string id, double value);

  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }
  std::optional<double> value(const std::string& id) const;

  /// Checks every `<metric>.min` / `<metric>.max` key of `baseline` against
  /// the recorded metrics. `run_seed` is compared to the baseline's `seed`
  /// key (seed policy); a missing `seed` key accepts any run seed.
  CheckResult check(const std::map<std::string, double>& baseline,
                    std::uint64_t run_seed) const;

  /// Flat JSON document (BENCH_fidelity.json): schema + seed + one line per
  /// metric, then the assertion verdicts when `check` is given, then a
  /// single `"timing"` line (the only nondeterministic bytes — strip with
  /// `grep -v '"timing":'` to compare runs).
  std::string to_json(std::uint64_t seed, double wall_s,
                      const CheckResult* check = nullptr) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Rebuilds a FidelityReport (and its seed) from a parsed BENCH_fidelity.json
/// flat-number map — the `--suite NAME --check-only` path, which re-checks an
/// existing run against a (possibly updated) baseline without re-running the
/// experiments. Assertion and bookkeeping keys are skipped.
FidelityReport report_from_flat_json(const std::map<std::string, double>& doc,
                                     std::uint64_t& seed_out);

/// Renders a human-readable verdict table (one line per assertion).
std::string render_check(const CheckResult& check);

/// Number of monotone stretches in `xs` spanning at least `min_steps`
/// consecutive moves in one direction (ties extend a run) with a net change
/// of at least `min_change` — the Fig. 4 "walking ramp" counter. A series
/// of per-second ToF medians under a periodic toward/away walk produces one
/// run per leg; micro-mobility noise produces none.
int count_monotone_runs(const std::vector<double>& xs, std::size_t min_steps,
                        double min_change);

}  // namespace mobiwlan::fidelity
