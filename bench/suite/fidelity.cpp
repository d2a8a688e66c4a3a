// Fidelity suite: re-runs the core experiments (Table 1, Fig 2, Fig 4,
// Fig 9) through the runtime Experiment sharder and records the statistics
// the paper-fidelity gate asserts on (src/fidelity/). Trial counts are
// smaller than the full benches — the gate wants stable statistics at CI
// cost, and for a fixed seed every number here is exact, so bounds in
// ci/fidelity_baseline.json can sit close to the measured values.
//
// Metric naming: `<experiment>.<group>.<stat>`; EXPERIMENTS.md links each
// experiment section to its assertion ids.
#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "chan/channel_batch.hpp"
#include "chan/scenario.hpp"
#include "core/csi_similarity.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "runtime/classifier_driver.hpp"
#include "suite/suite.hpp"
#include "util/filters.hpp"
#include "util/significance.hpp"
#include "util/stats.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

constexpr MobilityClass kClasses[] = {
    MobilityClass::kStatic, MobilityClass::kEnvironmental, MobilityClass::kMicro,
    MobilityClass::kMacro};

int class_index(MobilityClass c) {
  for (int i = 0; i < 4; ++i)
    if (kClasses[i] == c) return i;
  return 0;
}

/// Metric id segment for a class ("static", "environmental", ...).
std::string class_key(MobilityClass c) { return std::string(to_string(c)); }

void add_accuracy_with_ci(FidelityReport& rep, const std::string& prefix,
                          int hits, int total) {
  const WilsonInterval ci =
      wilson_interval(static_cast<std::size_t>(hits),
                      static_cast<std::size_t>(total > 0 ? total : 1));
  rep.add(prefix, ci.point);
  rep.add(prefix + ".ci_lo", ci.lo);
  rep.add(prefix + ".ci_hi", ci.hi);
  rep.add(prefix + ".ci_halfwidth", (ci.hi - ci.lo) / 2.0);
}

// ---- Table 1: confusion-matrix diagonal + heading ------------------------

struct ClassCounts {
  std::array<int, 4> detected{};
  int total = 0;
};

void fidelity_table1(runtime::Experiment& exp, FidelityReport& rep) {
  const int trials = 16;  // locations per class; 30 s each, 10 s warmup
  for (const MobilityClass cls : kClasses) {
    const auto rows = exp.map<ClassCounts>(
        static_cast<std::size_t>(trials), [cls](runtime::Trial& trial) {
          ClassCounts out;
          const Scenario s = make_scenario(cls, trial.rng);
          runtime::run_classifier(s, 30.0, 10.0,
                                  [&](double, MobilityMode mode) {
                                    ++out.total;
                                    ++out.detected[class_index(to_class(mode))];
                                  });
          return out;
        });
    int hits = 0, total = 0;
    for (const ClassCounts& r : rows) {
      hits += r.detected[class_index(cls)];
      total += r.total;
    }
    add_accuracy_with_ci(rep, "table1.acc." + class_key(cls), hits, total);
    rep.add("table1.n_seconds." + class_key(cls), total);
  }

  // Heading accuracy on controlled radial walks (paper §2.4).
  struct HitCounts {
    int hits = 0;
    int total = 0;
  };
  const auto heading = exp.map<HitCounts>(12, [](runtime::Trial& trial) {
    const bool toward = trial.index % 2 == 0;
    HitCounts out;
    const Scenario s =
        make_radial_scenario(toward, toward ? 30.0 : 8.0, trial.rng);
    runtime::run_classifier(s, 18.0, 8.0, [&](double, MobilityMode mode) {
      if (!is_macro(mode)) return;
      ++out.total;
      const MobilityMode want =
          toward ? MobilityMode::kMacroToward : MobilityMode::kMacroAway;
      if (mode == want) ++out.hits;
    });
    return out;
  });
  int hits = 0, total = 0;
  for (const HitCounts& r : heading) {
    hits += r.hits;
    total += r.total;
  }
  add_accuracy_with_ci(rep, "table1.heading_accuracy", hits, total);
}

// ---- Fig 2: CSI-similarity threshold separation at tau = 0.5 s -----------

std::vector<double> similarity_trial(MobilityClass cls,
                                     std::optional<EnvironmentalActivity> act,
                                     runtime::Trial& trial) {
  Scenario s = act ? make_environmental_scenario(*act, trial.rng)
                   : make_scenario(cls, trial.rng);
  std::vector<double> out;
  ChannelBatch::Scratch scratch;
  CsiMatrix prev, cur;
  ChannelBatch::csi_link(*s.channel, 0.0, prev, scratch);
  for (double t = 0.5; t < 15.0; t += 0.5) {
    ChannelBatch::csi_link(*s.channel, t, cur, scratch);
    out.push_back(csi_similarity(prev, cur));
    std::swap(prev, cur);
  }
  return out;
}

SampleSet similarity_samples(runtime::Experiment& exp, MobilityClass cls,
                             std::optional<EnvironmentalActivity> act,
                             int trials) {
  const auto rows = exp.map<std::vector<double>>(
      static_cast<std::size_t>(trials), [cls, act](runtime::Trial& trial) {
        return similarity_trial(cls, act, trial);
      });
  SampleSet out;
  for (const auto& r : rows) out.add_all(r);
  return out;
}

void fidelity_fig2(runtime::Experiment& exp, FidelityReport& rep) {
  constexpr double kThrSta = 0.98;  // paper's Thr_sta / Thr_env
  constexpr double kThrEnv = 0.7;
  const int trials = 12;

  const SampleSet st =
      similarity_samples(exp, MobilityClass::kStatic, std::nullopt, trials);
  const SampleSet ew = similarity_samples(
      exp, MobilityClass::kEnvironmental, EnvironmentalActivity::kWeak, trials);
  const SampleSet es =
      similarity_samples(exp, MobilityClass::kEnvironmental,
                         EnvironmentalActivity::kStrong, trials);
  const SampleSet mi =
      similarity_samples(exp, MobilityClass::kMicro, std::nullopt, trials);
  const SampleSet ma =
      similarity_samples(exp, MobilityClass::kMacro, std::nullopt, trials);

  SampleSet env;
  env.add_all(ew.samples());
  env.add_all(es.samples());
  SampleSet dev;
  dev.add_all(mi.samples());
  dev.add_all(ma.samples());

  // Separation quantiles: the bulk of each class on its side of the
  // thresholds (Fig 2(b): static above 0.98, environmental in (0.7, 0.98],
  // device mobility below 0.7).
  rep.add("fig2.static.p05", st.quantile(0.05));
  rep.add("fig2.static.frac_above_thr_sta", 1.0 - st.cdf_at(kThrSta));
  rep.add("fig2.env.p05", env.quantile(0.05));
  rep.add("fig2.env.p95", env.quantile(0.95));
  rep.add("fig2.env.frac_in_band", env.cdf_at(kThrSta) - env.cdf_at(kThrEnv));
  rep.add("fig2.device.p95", dev.quantile(0.95));
  rep.add("fig2.device.frac_below_thr_env", dev.cdf_at(kThrEnv));
  rep.add("fig2.n_samples",
          static_cast<double>(st.size() + env.size() + dev.size()));
}

// ---- Fig 4: ToF ramps under macro vs micro mobility ----------------------

std::vector<double> tof_median_series(Scenario& s, double duration_s) {
  std::vector<double> out;
  MedianAggregator agg;
  double epoch = 0.0;
  for (double t = 0.0; t < duration_s; t += 0.02) {
    if (t - epoch >= 1.0) {
      if (auto m = agg.flush()) out.push_back(*m);
      epoch += 1.0;
    }
    agg.add(s.channel->tof_cycles(t));
  }
  return out;
}

void fidelity_fig4(runtime::Experiment& exp, FidelityReport& rep) {
  // Same run definition as bench_fig4_tof: a monotone stretch counts as a
  // walking ramp if it spans >= 3 steps and >= 3 cycles of net change.
  constexpr std::size_t kMinSteps = 3;
  constexpr double kMinChange = 3.0;
  const int trials = 6;

  const auto macro_runs =
      exp.map<int>(static_cast<std::size_t>(trials), [&](runtime::Trial& trial) {
        Scenario s = make_bounce_scenario(4.0, 28.0, trial.rng);
        return fidelity::count_monotone_runs(tof_median_series(s, 60.0),
                                             kMinSteps, kMinChange);
      });
  const auto micro_runs =
      exp.map<int>(static_cast<std::size_t>(trials), [&](runtime::Trial& trial) {
        Scenario s = make_scenario(MobilityClass::kMicro, trial.rng);
        return fidelity::count_monotone_runs(tof_median_series(s, 60.0),
                                             kMinSteps, kMinChange);
      });

  double macro_sum = 0.0;
  int macro_min = macro_runs[0];
  for (const int r : macro_runs) {
    macro_sum += r;
    if (r < macro_min) macro_min = r;
  }
  int micro_max = micro_runs[0];
  for (const int r : micro_runs)
    if (r > micro_max) micro_max = r;

  rep.add("fig4.macro.mean_runs", macro_sum / trials);
  rep.add("fig4.macro.min_runs", macro_min);
  rep.add("fig4.micro.max_runs", micro_max);
}

// ---- Fig 9: rate-adaptation scheme ordering ------------------------------

void fidelity_fig9(runtime::Experiment& exp, FidelityReport& rep) {
  const char* schemes[] = {"atheros", "motion-aware", "rapidsample",
                           "softrate", "esnr"};
  const char* keys[] = {"atheros", "motion_aware", "rapidsample", "softrate",
                        "esnr"};
  const int traces = 8;
  const std::vector<std::uint64_t> trace_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(traces));
  const auto per_scheme = exp.map<double>(
      static_cast<std::size_t>(traces) * 5,
      [&trace_seeds, &schemes](runtime::Trial& trial) {
        return fig9_run_scheme(schemes[trial.index % 5],
                               trace_seeds[trial.index / 5],
                               MobilityClass::kMacro);
      });

  SampleSet results[5];
  for (int trace = 0; trace < traces; ++trace)
    for (int si = 0; si < 5; ++si)
      results[si].add(per_scheme[static_cast<std::size_t>(trace) * 5 +
                                 static_cast<std::size_t>(si)]);
  for (int si = 0; si < 5; ++si)
    rep.add(std::string("fig9.") + keys[si] + ".median_mbps",
            results[si].median());

  // Paper ordering (Fig 9(b)): ESNR best, motion-aware ~90% of ESNR and
  // clearly above stock; RapidSample between stock and motion-aware.
  const double stock = results[0].median();
  rep.add("fig9.aware_over_stock", results[1].median() / stock);
  rep.add("fig9.rapidsample_over_stock", results[2].median() / stock);
  rep.add("fig9.esnr_over_stock", results[4].median() / stock);
  rep.add("fig9.aware_over_esnr", results[1].median() / results[4].median());
}

}  // namespace

fidelity::FidelityReport run_fidelity_report(runtime::Experiment& exp) {
  FidelityReport rep;
  fidelity_table1(exp, rep);
  fidelity_fig2(exp, rep);
  fidelity_fig4(exp, rep);
  fidelity_fig9(exp, rep);
  return rep;
}

}  // namespace mobiwlan::benchsuite
