#include "sim/evaluation.hpp"

#include <functional>

#include "runtime/classifier_driver.hpp"

namespace mobiwlan {

double ClassTally::accuracy(MobilityClass truth) const {
  if (total == 0) return 0.0;
  const auto it = by_class.find(truth);
  return it == by_class.end() ? 0.0
                              : static_cast<double>(it->second) / total;
}

double ClassTally::fraction(MobilityMode mode) const {
  if (total == 0) return 0.0;
  const auto it = by_mode.find(mode);
  return it == by_mode.end() ? 0.0 : static_cast<double>(it->second) / total;
}

double ConfusionMatrix::accuracy(MobilityClass truth) const {
  const auto it = rows.find(truth);
  return it == rows.end() ? 0.0 : it->second.accuracy(truth);
}

double ConfusionMatrix::mean_accuracy() const {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [cls, tally] : rows) sum += tally.accuracy(cls);
  return sum / static_cast<double>(rows.size());
}

namespace {

/// One trial over `s` at the options' cadences: `on_mode` receives the
/// classifier's label once per second after the warmup.
void run_trial(const Scenario& s, const EvaluationOptions& opt,
               const std::function<void(MobilityMode)>& on_mode) {
  trace::LiveChannelSource live(*s.channel);
  runtime::run_classifier(
      live, 0, opt.duration_s, opt.warmup_s,
      [&](double, const MobilityClassifier& clf) { on_mode(clf.mode()); },
      opt.classifier);
}

}  // namespace

ClassTally evaluate_class(MobilityClass cls, Rng& rng,
                          const EvaluationOptions& opt) {
  ClassTally tally;
  for (int trial = 0; trial < opt.trials; ++trial) {
    const Scenario s = make_scenario(cls, rng, opt.scenario);
    run_trial(s, opt, [&](MobilityMode mode) {
      ++tally.total;
      ++tally.by_class[to_class(mode)];
      ++tally.by_mode[mode];
    });
  }
  return tally;
}

ConfusionMatrix evaluate_all(Rng& rng, const EvaluationOptions& opt) {
  ConfusionMatrix matrix;
  for (MobilityClass cls : {MobilityClass::kStatic, MobilityClass::kEnvironmental,
                            MobilityClass::kMicro, MobilityClass::kMacro}) {
    matrix.rows[cls] = evaluate_class(cls, rng, opt);
  }
  return matrix;
}

std::pair<double, double> evaluate_orbit(Rng& rng, const EvaluationOptions& opt,
                                         double radius_m) {
  int macro = 0;
  int micro = 0;
  int total = 0;
  for (int trial = 0; trial < opt.trials; ++trial) {
    const Scenario s = make_circular_scenario(radius_m + trial, rng, opt.scenario);
    run_trial(s, opt, [&](MobilityMode mode) {
      ++total;
      if (is_macro(mode)) ++macro;
      if (mode == MobilityMode::kMicro) ++micro;
    });
  }
  if (total == 0) return {0.0, 0.0};
  return {static_cast<double>(macro) / total, static_cast<double>(micro) / total};
}

}  // namespace mobiwlan
