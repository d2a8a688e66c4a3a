// Tests for the shared classification-evaluation harness, including the
// AoA-augmented orbit path.
#include "sim/evaluation.hpp"

#include <gtest/gtest.h>

#include "runtime/classifier_driver.hpp"

namespace mobiwlan {
namespace {

EvaluationOptions quick_options() {
  EvaluationOptions opt;
  opt.trials = 3;
  opt.duration_s = 25.0;
  return opt;
}

TEST(EvaluationTest, TallyCountsAreConsistent) {
  Rng rng(1);
  const ClassTally tally =
      evaluate_class(MobilityClass::kStatic, rng, quick_options());
  EXPECT_GT(tally.total, 0);
  int class_sum = 0;
  for (const auto& [cls, n] : tally.by_class) class_sum += n;
  EXPECT_EQ(class_sum, tally.total);
  int mode_sum = 0;
  for (const auto& [mode, n] : tally.by_mode) mode_sum += n;
  EXPECT_EQ(mode_sum, tally.total);
}

TEST(EvaluationTest, StaticAccuracyHigh) {
  Rng rng(2);
  const ClassTally tally =
      evaluate_class(MobilityClass::kStatic, rng, quick_options());
  EXPECT_GT(tally.accuracy(MobilityClass::kStatic), 0.8);
}

TEST(EvaluationTest, ConfusionMatrixHasAllRows) {
  Rng rng(3);
  const ConfusionMatrix m = evaluate_all(rng, quick_options());
  EXPECT_EQ(m.rows.size(), 4u);
  EXPECT_GT(m.mean_accuracy(), 0.6);
}

TEST(EvaluationTest, EmptyTallySafe) {
  ClassTally tally;
  EXPECT_DOUBLE_EQ(tally.accuracy(MobilityClass::kMacro), 0.0);
  EXPECT_DOUBLE_EQ(tally.fraction(MobilityMode::kMicro), 0.0);
  ConfusionMatrix m;
  EXPECT_DOUBLE_EQ(m.mean_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy(MobilityClass::kStatic), 0.0);
}

TEST(EvaluationTest, OrbitMisclassifiedWithoutAoa) {
  Rng rng(4);
  const auto [macro_frac, micro_frac] = evaluate_orbit(rng, quick_options());
  EXPECT_LT(macro_frac, 0.1);
  EXPECT_GT(micro_frac, 0.8);
}

TEST(EvaluationTest, OrbitRecoveredWithAoa) {
  EvaluationOptions opt = quick_options();
  opt.trials = 4;
  opt.duration_s = 35.0;
  opt.classifier.use_aoa = true;
  Rng rng(5);
  const auto [macro_frac, micro_frac] = evaluate_orbit(rng, opt);
  EXPECT_GT(macro_frac, 0.5);
  EXPECT_LT(micro_frac, 0.5);
}

TEST(EvaluationTest, AoaDoesNotDisturbStatic) {
  EvaluationOptions opt = quick_options();
  opt.classifier.use_aoa = true;
  Rng rng(6);
  const ClassTally tally = evaluate_class(MobilityClass::kStatic, rng, opt);
  EXPECT_GT(tally.accuracy(MobilityClass::kStatic), 0.8);
  EXPECT_DOUBLE_EQ(tally.fraction(MobilityMode::kMacroOrbit), 0.0);
}

TEST(EvaluationTest, DeterministicGivenSeed) {
  auto run = [] {
    Rng rng(7);
    return evaluate_class(MobilityClass::kMicro, rng, quick_options())
        .accuracy(MobilityClass::kMicro);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(EvaluationTest, RadialWalksClassifiedWithHeading) {
  // The harness's trial loop is usable directly for controlled experiments.
  Rng rng(8);
  const Scenario s = make_radial_scenario(false, 8.0, rng);
  trace::LiveChannelSource live(*s.channel);
  int away = 0;
  int total = 0;
  runtime::run_classifier(live, 0, 18.0, 8.0,
                          [&](double, const MobilityClassifier& clf) {
                            ++total;
                            if (clf.mode() == MobilityMode::kMacroAway) ++away;
                          });
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(away) / total, 0.6);
}

}  // namespace
}  // namespace mobiwlan
