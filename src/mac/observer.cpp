#include "mac/observer.hpp"

#include "phy/error_model.hpp"

namespace mobiwlan {

MobilityObserver::MobilityObserver(const MobilityClassifier::Config& config,
                                   std::size_t n_units)
    : classifier_(config), n_units_(n_units) {
  if (n_units > 1) heading_.assign(n_units, TofTracker(config.tof));
}

void MobilityObserver::advance(trace::ObservableSource& src,
                               std::size_t serving, double t) {
  const MobilityClassifier::Config& config = classifier_.config();
  while (next_csi_t_ <= t) {
    if (src.csi(static_cast<std::uint32_t>(serving), next_csi_t_, csi_))
      classifier_.on_csi(next_csi_t_, csi_);
    next_csi_t_ += config.csi_period_s;
  }
  while (next_tof_t_ <= t) {
    for (std::size_t u = 0; u < n_units_; ++u) {
      const auto tof =
          src.tof_cycles(static_cast<std::uint32_t>(u), next_tof_t_);
      if (!tof) continue;
      if (u == serving)
        classifier_.on_tof(next_tof_t_, *tof);
      else
        heading_[u].add(next_tof_t_, *tof);
    }
    next_tof_t_ += config.tof_period_s;
  }
}

std::optional<std::size_t> MobilityObserver::steer_target(
    trace::ObservableSource& src, std::size_t serving, double serving_rssi,
    double t) const {
  std::optional<std::size_t> best;
  double best_rssi = serving_rssi - 1.0;
  for (std::size_t u = 0; u < heading_.size(); ++u) {
    if (u == serving || heading_[u].trend() != TofTrend::kDecreasing) continue;
    const auto rssi = src.scan_rssi_dbm(static_cast<std::uint32_t>(u), t);
    if (rssi && *rssi >= best_rssi) {
      best_rssi = *rssi;
      best = u;
    }
  }
  return best;
}

void FrameChannel::read(trace::ObservableSource& src, std::uint32_t unit,
                        double t, double airtime_s, const char* loop) {
  trace::ground_csi(src.csi_true(unit, t, h_start), loop, "h_start");
  eff_snr_db = effective_snr_db(
      h_start, trace::ground(src.snr_db(unit, t), loop, "snr"));
  trace::ground_csi(src.csi_true(unit, t + airtime_s, h_end), loop, "h_end");
  decorr_end = 1.0 - complex_correlation(h_start, h_end);
}

}  // namespace mobiwlan
