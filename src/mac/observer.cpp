#include "mac/observer.hpp"

#include <cmath>

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
  const double snr_db = trace::ground(src.snr_db(unit, t), loop, "snr");
  trace::ground_csi(src.csi_true(unit, t + airtime_s, h_end), loop, "h_end");
  measure(snr_db);
}

void FrameChannel::measure(double wideband_snr_db) {
  const std::vector<cplx>& start = h_start.raw();
  const bool paired = start.size() == h_end.raw().size();
  // An h_end of another size has no correlation with h_start; the pass
  // then reads h_start in its place and the h_end sums go unused.
  const cplx* a = start.data();
  const cplx* b = paired ? h_end.raw().data() : a;
  const std::size_t n_sc = h_start.n_subcarriers();
  const std::size_t n_pairs = h_start.n_tx() * h_start.n_rx();
  pow_sc_.clear();
  pow_sc_.resize(n_sc, 0.0);
  const CsiPassSums sums = csi_pass(a, b, n_pairs, n_sc, pow_sc_.data());

  const double mean_pow =
      start.empty() ? 0.0 : sums.na / static_cast<double>(start.size());
  eff_snr_db = mean_pow <= 0.0
                   ? wideband_snr_db
                   : effective_snr_db_from_powers(wideband_snr_db, mean_pow,
                                                  n_pairs, pow_sc_.data(),
                                                  n_sc);
  // A NaN norm is not <= 0 and carries into the correlation.
  const bool uncorrelated =
      !paired || start.empty() || sums.na <= 0.0 || sums.nb <= 0.0;
  decorr_end = 1.0 - (uncorrelated ? 0.0
                                   : std::abs(sums.dot) /
                                         std::sqrt(sums.na * sums.nb));
}

}  // namespace mobiwlan
