// Table 1 on the runtime runner: the mobility-classification confusion
// matrix over randomized locations, macro heading accuracy on controlled
// radial walks, and the §9 circular-walk limitation check. Every location
// is one independent job; aggregation is in job-index order so the numbers
// are identical for any worker count.
#include <algorithm>
#include <string>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "runtime/classifier_driver.hpp"
#include "suite/suite.hpp"
#include "util/table.hpp"

namespace mobiwlan::benchsuite {

ClassCounts classify_trial(MobilityClass cls, double duration_s,
                           runtime::Trial& trial) {
  ClassCounts out;
  const Scenario s = make_scenario(cls, trial.rng);
  trace::LiveChannelSource live(*s.channel);
  runtime::run_classifier(
      live, 0, duration_s, 10.0, [&](double, const MobilityClassifier& clf) {
        ++out.total;
        ++out.detected[class_index(to_class(clf.mode()))];
      });
  return out;
}

HitCounts heading_trial(runtime::Trial& trial) {
  const bool toward = trial.index % 2 == 0;
  HitCounts out;
  const Scenario s =
      make_radial_scenario(toward, toward ? 30.0 : 8.0, trial.rng);
  trace::LiveChannelSource live(*s.channel);
  runtime::run_classifier(
      live, 0, 18.0, 8.0, [&](double, const MobilityClassifier& clf) {
        const MobilityMode mode = clf.mode();
        if (!is_macro(mode)) return;
        ++out.total;
        const MobilityMode want =
            toward ? MobilityMode::kMacroToward : MobilityMode::kMacroAway;
        if (mode == want) ++out.hits;
      });
  return out;
}

void run_table1(runtime::Experiment& exp, runtime::BenchReport& report) {
  report.text += banner_text(
      "Table 1 — mobility classification accuracy",
      "diagonal > 92% everywhere (paper: static 97 / env 95 / "
      "micro 96 / macro 93)");

  const int trials = 30;  // "locations" per class
  report.add_metadata("trials_per_class", std::to_string(trials));
  report.add_metadata("trial_duration_s", "40");
  report.add_metadata("warmup_s", "10");

  TablePrinter t("confusion matrix (rows = ground truth)");
  t.set_header({"truth \\ detected", "static", "environmental", "micro",
                "macro"});
  for (const MobilityClass cls : kClasses) {
    const auto rows = exp.map<ClassCounts>(
        static_cast<std::size_t>(trials), [cls](runtime::Trial& trial) {
          return classify_trial(cls, 40.0, trial);
        });
    ClassCounts sum;
    for (const ClassCounts& r : rows) {
      sum.total += r.total;
      for (int i = 0; i < 4; ++i) sum.detected[i] += r.detected[i];
    }
    std::vector<std::string> cells{std::string(to_string(cls))};
    for (const MobilityClass det : kClasses) {
      const double frac =
          static_cast<double>(sum.detected[class_index(det)]) /
          std::max(1, sum.total);
      report.add_metric(strf("confusion.%s.%s",
                             std::string(to_string(cls)).c_str(),
                             std::string(to_string(det)).c_str()),
                        frac);
      cells.push_back(TablePrinter::pct(frac));
    }
    t.add_row(cells);
  }
  report.text += t.render();

  // Heading accuracy on controlled toward/away walks (§2.4).
  const auto heading = exp.map<HitCounts>(16, heading_trial);
  HitCounts h;
  for (const HitCounts& r : heading) {
    h.hits += r.hits;
    h.total += r.total;
  }
  const double heading_acc =
      static_cast<double>(h.hits) / std::max(1, h.total);
  report.add_metric("heading_accuracy", heading_acc);
  report.text += strf("\nHeading (toward vs away) accuracy on radial walks: "
                      "%.1f%% (%d/%d classified-macro seconds)\n",
                      100.0 * heading_acc, h.hits, h.total);

  // §9 limitation: a circular walk around the AP must classify as micro.
  const auto circular = exp.map<HitCounts>(6, [](runtime::Trial& trial) {
    HitCounts out;
    const Scenario s = make_circular_scenario(
        10.0 + static_cast<double>(trial.index), trial.rng);
    trace::LiveChannelSource live(*s.channel);
    runtime::run_classifier(
        live, 0, 30.0, 10.0, [&](double, const MobilityClassifier& clf) {
          ++out.total;
          if (clf.mode() == MobilityMode::kMicro) ++out.hits;
        });
    return out;
  });
  HitCounts c;
  for (const HitCounts& r : circular) {
    c.hits += r.hits;
    c.total += r.total;
  }
  const double circular_micro =
      static_cast<double>(c.hits) / std::max(1, c.total);
  report.add_metric("circular_classified_micro", circular_micro);
  report.text += strf("Limitation check (§9): circular walk classified "
                      "micro %.1f%% of the time (paper predicts "
                      "misclassification as micro)\n",
                      100.0 * circular_micro);
}

}  // namespace mobiwlan::benchsuite
