#include "runtime/classifier_driver.hpp"

#include "chan/channel_batch.hpp"

namespace mobiwlan::runtime {

void run_classifier(const Scenario& s, double duration_s, double warmup_s,
                    const std::function<void(double, MobilityMode)>& on_second,
                    MobilityClassifier::Config cfg) {
  MobilityClassifier clf(cfg);
  // Scratch and matrix are reused across the whole run — no heap
  // allocation after the first sample.
  ChannelBatch::Scratch scratch;
  CsiMatrix csi;
  double next_csi = 0.0;
  double next_second = warmup_s;
  for (double t = 0.0; t < duration_s; t += cfg.tof_period_s) {
    if (t >= next_csi - 1e-9) {
      ChannelBatch::csi_link(*s.channel, t, csi, scratch);
      clf.on_csi(t, csi);
      next_csi += cfg.csi_period_s;
    }
    clf.on_tof(t, s.channel->tof_cycles(t));
    if (t >= next_second) {
      on_second(t, clf.mode());
      next_second += 1.0;
    }
  }
}

void run_classifier_from_source(
    trace::ObservableSource& src, std::uint32_t unit, double duration_s,
    double warmup_s,
    const std::function<void(double, std::optional<MobilityMode>)>& on_second,
    MobilityClassifier::Config cfg) {
  using trace::StreamKind;
  src.require({StreamKind::kCsi, StreamKind::kTof}, "classifier trial");
  MobilityClassifier clf(cfg);
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
      on_second(t, clf.decision(t));
      next_second += 1.0;
    }
  }
}

}  // namespace mobiwlan::runtime
