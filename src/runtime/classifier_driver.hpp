// classifier_driver.hpp — the standard classifier-over-scenario trial loop.
//
// Every classification bench drives a MobilityClassifier over a scenario at
// the paper's measurement cadences (CSI every cfg.csi_period_s, ToF every
// cfg.tof_period_s) and samples the decision once per second. That cadence
// logic lives here, once, so every bench and gated suite shares a single
// definition of what "one trial" means.
#pragma once

#include <functional>
#include <optional>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "trace/source.hpp"

namespace mobiwlan::runtime {

/// Drives a classifier over `s` for `duration_s`, invoking
/// `on_second(t, mode)` once per second after `warmup_s`.
void run_classifier(const Scenario& s, double duration_s, double warmup_s,
                    const std::function<void(double, MobilityMode)>& on_second,
                    MobilityClassifier::Config cfg = {});

/// The same trial loop over any ObservableSource (live, recording tee, or
/// trace replay) at the given unit. Reads the source cannot serve simply
/// never reach the classifier, and `on_second` receives decision(t) — which
/// decays to nullopt across gaps (hold-then-decay, never interpolation).
void run_classifier_from_source(
    trace::ObservableSource& src, std::uint32_t unit, double duration_s,
    double warmup_s,
    const std::function<void(double, std::optional<MobilityMode>)>& on_second,
    MobilityClassifier::Config cfg = {});

}  // namespace mobiwlan::runtime
