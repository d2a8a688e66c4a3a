// Fault-tolerance suite (`mobiwlan-bench --suite fault`): quantifies graceful
// degradation when the PHY-observable exports (CSI, ToF, RSSI, feedback)
// are dropped, delayed, or reduced to RSSI-only — the failure modes a real
// controller deployment sees when firmware export queues overflow or the
// backhaul drops reports.
//
//   * Table-1 classification accuracy vs CSI+ToF drop rate (0-50%), paired
//     scenarios across levels; accuracy must degrade monotonically.
//   * Fig-9 (rate adaptation) and Fig-13 (end-to-end) mobility-aware vs
//     stock throughput ratios at 0% / 30% / 50% export loss: the aware
//     stack must degrade toward stock, never below it.
//   * Motion-aware vs default roaming under 30% ToF loss: the ToF trend
//     windows reset across gaps, so the scheme falls back to the stock
//     weak-signal behaviour and must still be at least as good.
//   * An exact zero-fault identity probe: an all-zero FaultPlan must
//     reproduce the raw channel observables bit for bit (count == 0).
//
// Metrics land in a fidelity::FidelityReport and are gated against
// ci/fault_baseline.json with the same flat-JSON schema, seed policy, and
// determinism contract as the paper-fidelity gate: for a fixed --seed the
// report is byte-identical at any --jobs outside its "timing" line.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "net/deployment.hpp"
#include "net/roaming.hpp"
#include "sim/overall_sim.hpp"
#include "suite/suite.hpp"
#include "util/stats.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

constexpr MobilityClass kClasses[] = {
    MobilityClass::kStatic, MobilityClass::kEnvironmental, MobilityClass::kMicro,
    MobilityClass::kMacro};

/// The drop-rate sweep every subsection reports at (fractions of exports
/// lost). Metric suffixes are percentage-styled: drop00, drop10, ...
constexpr double kDropLevels[] = {0.0, 0.1, 0.3, 0.5};

std::string drop_key(double drop) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "drop%02d", static_cast<int>(drop * 100.0 + 0.5));
  return buf;
}

/// Stream-id offset decorrelating fault substreams from the channel draws
/// that share a scenario seed.
constexpr std::uint64_t kFaultSalt = 0xFA17;

/// A CSI+ToF drop plan whose substreams derive from the scenario seed, so
/// the fault world is reproducible and independent of the channel draws.
FaultPlan drop_plan(double drop, std::uint64_t scenario_seed) {
  FaultPlan plan;
  plan.csi.drop_prob = drop;
  plan.tof.drop_prob = drop;
  plan.seed = Rng(scenario_seed).stream(kFaultSalt).seed();
  return plan;
}

// ---- Table 1 under export loss ------------------------------------------

struct HitCounts {
  int hits = 0;
  int total = 0;
};

/// One classification trial through DegradedObservables, sampling the
/// hold-then-decay decision(t) once per second: a withheld (stale) decision
/// counts as a miss, so the metric prices both misclassification and the
/// classifier knowing it has gone blind.
HitCounts degraded_accuracy_trial(MobilityClass cls, const FaultPlan& plan,
                                  Rng& scenario_rng) {
  const Scenario s = make_scenario(cls, scenario_rng);
  DegradedObservables obs(*s.channel, plan);
  const MobilityClassifier::Config cfg;
  MobilityClassifier clf(cfg);
  HitCounts out;
  double next_csi = 0.0;
  double next_second = 10.0;  // warmup
  for (double t = 0.0; t < 30.0; t += cfg.tof_period_s) {
    if (t >= next_csi - 1e-9) {
      if (auto csi = obs.csi(t)) clf.on_csi(t, *csi);
      next_csi += cfg.csi_period_s;
    }
    if (auto tof = obs.tof_cycles(t)) clf.on_tof(t, *tof);
    if (t >= next_second) {
      ++out.total;
      const auto decided = clf.decision(t);
      if (decided && to_class(*decided) == cls) ++out.hits;
      next_second += 1.0;
    }
  }
  return out;
}

void fault_table1(runtime::Experiment& exp, FidelityReport& rep) {
  const int trials = 6;  // locations per class, shared across drop levels
  const std::size_t n = 4 * static_cast<std::size_t>(trials);
  const std::vector<std::uint64_t> scenario_seeds = exp.reserve_seeds(n);

  std::vector<double> acc;
  for (const double drop : kDropLevels) {
    const auto rows =
        exp.map<HitCounts>(n, [&scenario_seeds, drop,
                               trials](runtime::Trial& trial) {
          const MobilityClass cls =
              kClasses[trial.index / static_cast<std::size_t>(trials)];
          const std::uint64_t seed = scenario_seeds[trial.index];
          const FaultPlan plan = drop_plan(drop, seed);
          Rng scenario_rng(seed);
          return degraded_accuracy_trial(cls, plan, scenario_rng);
        });
    int hits = 0, total = 0;
    for (const HitCounts& r : rows) {
      hits += r.hits;
      total += r.total;
    }
    const double a = total > 0 ? static_cast<double>(hits) / total : 0.0;
    acc.push_back(a);
    rep.add("fault.table1.acc." + drop_key(drop), a);
  }
  // Monotone degradation with 0.5% slack for per-level sampling wiggle.
  bool monotone = true;
  for (std::size_t i = 1; i < acc.size(); ++i)
    if (acc[i] > acc[i - 1] + 0.005) monotone = false;
  rep.add("fault.table1.monotone", monotone ? 1.0 : 0.0);
}

// ---- Fig 9 / Fig 13 throughput ratios under export loss ------------------

void fault_fig9(runtime::Experiment& exp, FidelityReport& rep) {
  const int traces = 6;
  const std::vector<std::uint64_t> trace_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(traces));
  const double levels[] = {0.0, 0.3, 0.5};
  for (const double drop : levels) {
    const auto per_scheme = exp.map<double>(
        static_cast<std::size_t>(traces) * 2,
        [&trace_seeds, drop](runtime::Trial& trial) {
          const std::uint64_t seed = trace_seeds[trial.index / 2];
          const FaultPlan plan = drop_plan(drop, seed);
          const char* scheme = trial.index % 2 == 0 ? "atheros" : "motion-aware";
          return fig9_run_scheme(scheme, seed, MobilityClass::kMacro, plan);
        });
    SampleSet stock, aware;
    for (int trace = 0; trace < traces; ++trace) {
      stock.add(per_scheme[static_cast<std::size_t>(trace) * 2]);
      aware.add(per_scheme[static_cast<std::size_t>(trace) * 2 + 1]);
    }
    rep.add("fault.fig9.aware_over_stock." + drop_key(drop),
            aware.median() / stock.median());
  }
}

void fault_fig13(runtime::Experiment& exp, FidelityReport& rep) {
  const int walks = 5;
  const std::vector<std::uint64_t> walk_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(walks));
  const std::vector<std::uint64_t> traffic_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(walks));
  const double levels[] = {0.0, 0.3};
  for (const double drop : levels) {
    const auto per_run = exp.map<double>(
        static_cast<std::size_t>(walks) * 2,
        [&walk_seeds, &traffic_seeds, drop](runtime::Trial& trial) {
          const std::size_t walk = trial.index / 2;
          Rng rng(walk_seeds[walk]);
          auto traj = WlanDeployment::corridor_walk(rng);
          WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                              ChannelConfig{}, rng);
          OverallSimConfig cfg;
          cfg.duration_s = 45.0;
          cfg.mobility_aware = trial.index % 2 == 1;
          cfg.fault = drop_plan(drop, walk_seeds[walk]);
          Rng sim_rng(traffic_seeds[walk]);
          return simulate_overall(wlan, cfg, sim_rng).throughput_mbps;
        });
    SampleSet stock, aware;
    for (int walk = 0; walk < walks; ++walk) {
      stock.add(per_run[static_cast<std::size_t>(walk) * 2]);
      aware.add(per_run[static_cast<std::size_t>(walk) * 2 + 1]);
    }
    rep.add("fault.fig13.aware_over_stock." + drop_key(drop),
            aware.median() / stock.median());
  }
}

// ---- Motion-aware roaming under ToF export loss --------------------------

void fault_roaming(runtime::Experiment& exp, FidelityReport& rep) {
  const int walks = 5;
  const std::vector<std::uint64_t> walk_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(walks));
  const auto per_run = exp.map<double>(
      static_cast<std::size_t>(walks) * 2, [&walk_seeds](runtime::Trial& trial) {
        const std::size_t walk = trial.index / 2;
        Rng rng(walk_seeds[walk]);
        auto traj = WlanDeployment::corridor_walk(rng);
        WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                            ChannelConfig{}, rng);
        RoamingConfig cfg;
        cfg.fault.tof.drop_prob = 0.3;  // 30% of ToF exports lost
        cfg.fault.seed = Rng(walk_seeds[walk]).stream(kFaultSalt).seed();
        Rng sim_rng(walk_seeds[walk] + 1);
        const RoamingScheme scheme = trial.index % 2 == 0
                                         ? RoamingScheme::kDefault
                                         : RoamingScheme::kMotionAware;
        return simulate_roaming(wlan, scheme, cfg, sim_rng).mean_throughput_mbps;
      });
  SampleSet def, aware;
  for (int walk = 0; walk < walks; ++walk) {
    def.add(per_run[static_cast<std::size_t>(walk) * 2]);
    aware.add(per_run[static_cast<std::size_t>(walk) * 2 + 1]);
  }
  rep.add("fault.roam.aware_over_default.tofloss30",
          aware.median() / def.median());
}

// ---- Exact zero-fault identity probe -------------------------------------

/// An all-zero plan must reproduce the raw channel observables bit for bit:
/// twin channels built from the same seed, one read through
/// DegradedObservables, one raw, same call order. Any mismatch (value or a
/// withheld reading) counts.
int zero_identity_mismatches(std::uint64_t seed) {
  Rng rng_a(seed), rng_b(seed);
  const Scenario a = make_scenario(MobilityClass::kMacro, rng_a);
  const Scenario b = make_scenario(MobilityClass::kMacro, rng_b);
  DegradedObservables obs(*a.channel, FaultPlan{});
  int mismatches = 0;
  for (double t = 0.0; t < 10.0; t += 0.1) {
    const auto csi = obs.csi(t);
    const CsiMatrix want = b.channel->csi_at(t);
    if (!csi || csi->raw() != want.raw()) ++mismatches;
    const auto tof = obs.tof_cycles(t);
    if (!tof || *tof != b.channel->tof_cycles(t)) ++mismatches;
    const auto rssi = obs.rssi_dbm(t);
    if (!rssi || *rssi != b.channel->rssi_dbm(t)) ++mismatches;
    if (!obs.feedback_delivered(t)) ++mismatches;
  }
  return mismatches;
}

void fault_zero_identity(runtime::Experiment& exp, FidelityReport& rep) {
  const auto rows = exp.map<int>(4, [](runtime::Trial& trial) {
    return zero_identity_mismatches(trial.rng.next_u64());
  });
  int total = 0;
  for (const int m : rows) total += m;
  rep.add("fault.zero_identity_mismatches", total);
}

}  // namespace

FidelityReport run_fault_report(runtime::Experiment& exp) {
  FidelityReport rep;
  fault_table1(exp, rep);
  fault_fig9(exp, rep);
  fault_fig13(exp, rep);
  fault_roaming(exp, rep);
  fault_zero_identity(exp, rep);
  return rep;
}

}  // namespace mobiwlan::benchsuite
