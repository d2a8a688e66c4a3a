// evaluation.hpp — the standard classification-evaluation harness.
//
// Table 1, Figure 6 and the ablation benches all need the same experiment:
// run the classifier over randomized scenarios at the standard measurement
// cadences and tally per-second decisions against ground truth. Each trial
// is runtime::run_classifier over a live source, so every consumer shares
// one protocol (warmup, cadences, decision sampling) and their numbers are
// comparable.
#pragma once

#include <map>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"

namespace mobiwlan {

struct EvaluationOptions {
  int trials = 20;                ///< "locations" per class
  double duration_s = 40.0;       ///< per-trial observation time
  double warmup_s = 10.0;         ///< ignore decisions before this
  MobilityClassifier::Config classifier;
  ScenarioOptions scenario;
};

/// Per-second decision tallies for one ground-truth class.
struct ClassTally {
  std::map<MobilityClass, int> by_class;
  std::map<MobilityMode, int> by_mode;
  int total = 0;

  double accuracy(MobilityClass truth) const;
  double fraction(MobilityMode mode) const;
};

/// Full confusion-matrix evaluation over the four ground-truth classes.
struct ConfusionMatrix {
  std::map<MobilityClass, ClassTally> rows;

  double accuracy(MobilityClass truth) const;
  /// Mean of the four per-class accuracies.
  double mean_accuracy() const;
};

/// Evaluate one ground-truth class over `opt.trials` random locations.
ClassTally evaluate_class(MobilityClass cls, Rng& rng,
                          const EvaluationOptions& opt);

/// Evaluate all four classes.
ConfusionMatrix evaluate_all(Rng& rng, const EvaluationOptions& opt);

/// Evaluate the §9 circular-orbit case (not part of the four classes):
/// returns the fraction of seconds classified macro (any direction) and the
/// fraction classified micro.
std::pair<double, double> evaluate_orbit(Rng& rng, const EvaluationOptions& opt,
                                         double radius_m = 10.0);

}  // namespace mobiwlan
