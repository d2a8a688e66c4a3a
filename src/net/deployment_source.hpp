// deployment_source.hpp — the live multi-AP ObservableSource.
//
// Wraps a WlanDeployment as a trace::ObservableSource (unit = AP index) so
// the roaming and end-to-end loops run source-driven. Every CSI, RSSI and
// SNR read goes through the ChannelBatch link entry points on the AP's
// channel with one retained scratch (allocation-free in steady state), and
// the scan/sweep overrides keep the one-pass batched paths the deployment
// already provides.
#pragma once

#include "net/deployment.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

class LiveDeploymentSource : public trace::ObservableSource {
 public:
  explicit LiveDeploymentSource(WlanDeployment& wlan)
      : wlan_(wlan), sweep_(wlan.n_aps()) {}

  std::size_t n_units() const override { return wlan_.n_aps(); }
  bool has(trace::StreamKind) const override { return true; }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override {
    ChannelBatch::csi_link(wlan_.channel(unit), t, out, scratch_);
    return true;
  }
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override {
    return csi(unit, t, out);
  }
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override {
    ChannelBatch::csi_true_link(wlan_.channel(unit), t, out, scratch_);
    return true;
  }
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override {
    return ChannelBatch::rssi_link(wlan_.channel(unit), t, scratch_);
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override {
    return rssi_dbm(unit, t);
  }
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).tof_cycles(t);
  }
  std::optional<double> snr_db(std::uint32_t unit, double t) override {
    return ChannelBatch::snr_link(wlan_.channel(unit), t, scratch_);
  }
  std::optional<double> true_distance(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).true_distance(t);
  }

  /// Controller neighbor sweep: one batched pass (same per-link draw order
  /// as per-unit tof_cycles calls).
  void tof_sweep(double t, std::optional<double>* out) override {
    wlan_.tof_sweep(t, sweep_.data());
    for (std::size_t ap = 0; ap < sweep_.size(); ++ap) out[ap] = sweep_[ap];
  }

  /// Batched scan, first-wins argmax — same draws as per-unit scan reads.
  std::optional<std::size_t> strongest_unit(double t) override {
    return wlan_.strongest_ap(t);
  }

  WlanDeployment& deployment() { return wlan_; }

 private:
  WlanDeployment& wlan_;
  std::vector<double> sweep_;
  ChannelBatch::Scratch scratch_;
};

}  // namespace mobiwlan
