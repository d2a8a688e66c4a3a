// classifier_driver.hpp — the standard classifier trial loop.
//
// Every classification bench drives a MobilityClassifier at the paper's
// measurement cadences (CSI every cfg.csi_period_s, ToF every
// cfg.tof_period_s) and samples it once per second. That cadence logic lives
// here, once, over any ObservableSource (a live link, a recording tee, a
// strict or relaxed trace replay, or a FaultedSource over any of them), so
// every bench, gated suite and example shares a single definition of what
// "one trial" means.
#pragma once

#include <cstdint>
#include <functional>

#include "core/mobility_classifier.hpp"
#include "trace/source.hpp"

namespace mobiwlan::runtime {

/// Drives a classifier over `src` at `unit` for `duration_s`, invoking
/// `on_second(t, classifier)` once per second from `warmup_s` on. Reads the
/// source cannot serve never reach the classifier; callers read mode() for
/// the latest label or decision(t), which decays to nullopt across gaps
/// (hold-then-decay, never interpolation). Throws FrameSimConfigError for a
/// duration or cadence the loop cannot finish (mac/frame_sim_config.hpp) and
/// TraceError::kMissingStream when `src` lacks CSI or ToF.
void run_classifier(
    trace::ObservableSource& src, std::uint32_t unit, double duration_s,
    double warmup_s,
    const std::function<void(double, const MobilityClassifier&)>& on_second,
    MobilityClassifier::Config cfg = {});

}  // namespace mobiwlan::runtime
