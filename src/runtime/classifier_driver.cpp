#include "runtime/classifier_driver.hpp"

#include "mac/frame_sim_config.hpp"

namespace mobiwlan::runtime {

void run_classifier(
    trace::ObservableSource& src, std::uint32_t unit, double duration_s,
    double warmup_s,
    const std::function<void(double, const MobilityClassifier&)>& on_second,
    MobilityClassifier::Config cfg) {
  using trace::StreamKind;
  validate_frame_sim_config("run_classifier", duration_s, 0, &cfg);
  src.require({StreamKind::kCsi, StreamKind::kTof}, "classifier trial");
  MobilityClassifier clf(cfg);
  // The matrix is reused across the whole run: no heap allocation after the
  // first sample on a live source.
  CsiMatrix csi;
  double next_csi = 0.0;
  double next_second = warmup_s;
  for (double t = 0.0; t < duration_s; t += cfg.tof_period_s) {
    if (t >= next_csi - 1e-9) {
      if (src.csi(unit, t, csi)) clf.on_csi(t, csi);
      next_csi += cfg.csi_period_s;
    }
    if (auto tof = src.tof_cycles(unit, t)) clf.on_tof(t, *tof);
    if (t >= next_second) {
      on_second(t, clf);
      next_second += 1.0;
    }
  }
}

}  // namespace mobiwlan::runtime
