#include "core/mobility_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "chan/channel.hpp"
#include "core/csi_similarity.hpp"
#include "phy/aoa.hpp"
#include "util/stats.hpp"

namespace mobiwlan {

MobilityClassifier::MobilityClassifier(Config config)
    : config_(config),
      similarity_avg_(config.similarity_window),
      tof_tracker_(config.tof) {}

void MobilityClassifier::on_csi(double t, const CsiMatrix& csi) {
  if (!have_anchor_) {
    csi_anchor_set(csi, anchors_[anchor_]);
    have_anchor_ = true;
    last_csi_t_ = t;
    return;
  }
  // Decimate to the configured sampling period (allow 1% early jitter).
  if (t - last_csi_t_ < config_.csi_period_s * 0.99) return;

  // A hole in the CSI stream (dropped firmware exports): the pending anchor
  // is too old for Eq. (1)'s consecutive-sample similarity, so re-anchor on
  // this sample and rebuild the average from genuinely adjacent pairs.
  if (t - last_csi_t_ > config_.csi_gap_reanchor_factor * config_.csi_period_s) {
    csi_anchor_set(csi, anchors_[anchor_]);
    last_csi_t_ = t;
    similarity_avg_.reset();
    have_similarity_ = false;
    return;
  }

  // Anchored Eq. (1): bitwise the same value csi_similarity(last, csi)
  // produced, but only this sample's magnitude pass runs; its pass becomes
  // the next anchor via the index flip.
  const double s =
      csi_similarity_anchored(anchors_[anchor_], csi, anchors_[anchor_ ^ 1]);
  anchor_ ^= 1;
  similarity_avg_.add(s);
  have_similarity_ = true;
  last_csi_t_ = t;
  if (config_.use_aoa && tof_active_) {
    const AoaEstimate est = estimate_aoa(csi);
    last_aoa_ = est.angle_rad;
    aoa_values_.push_back(est.angle_rad);
    if (aoa_values_.size() > config_.aoa_trend_window) {
      std::copy(aoa_values_.begin() + 1, aoa_values_.end(),
                aoa_values_.begin());
      aoa_values_.pop_back();
    }
  }
  update_mode(t);
}

void MobilityClassifier::reset() {
  similarity_avg_.reset();
  anchor_ = 0;
  have_anchor_ = false;
  last_csi_t_ = 0.0;
  have_similarity_ = false;
  tof_tracker_.reset();
  tof_active_ = false;
  aoa_values_.clear();
  last_aoa_.reset();
  mode_ = MobilityMode::kStatic;
  macro_until_ = -1.0;
  macro_direction_ = MobilityMode::kMacroAway;
}

void MobilityClassifier::on_tof(double t, double tof_cycles) {
  if (!tof_active_) return;
  tof_tracker_.add(t, tof_cycles);
  update_mode(t);
}

void MobilityClassifier::observe(const ChannelSample& sample) {
  on_csi(sample.t, sample.csi);
  on_tof(sample.t, sample.tof_cycles);
}

std::optional<double> MobilityClassifier::similarity() const {
  if (!have_similarity_) return std::nullopt;
  return similarity_avg_.value();
}

std::optional<MobilityMode> MobilityClassifier::decision(double t) const {
  if (!have_similarity_) return std::nullopt;
  if (t - last_csi_t_ > config_.csi_stale_hold_s) return std::nullopt;
  return mode_;
}

void MobilityClassifier::update_mode(double t) {
  if (!have_similarity_) return;
  const double s = similarity_avg_.value();

  if (s > config_.thr_sta) {
    mode_ = MobilityMode::kStatic;
    tof_active_ = false;
    tof_tracker_.reset();
    aoa_values_.clear();
    macro_until_ = -1.0;
    return;
  }
  if (s > config_.thr_env) {
    mode_ = MobilityMode::kEnvironmental;
    tof_active_ = false;
    tof_tracker_.reset();
    aoa_values_.clear();
    macro_until_ = -1.0;
    return;
  }

  // Device mobility: consult the ToF trend (Fig. 5 right half).
  if (!tof_active_) {
    tof_active_ = true;
    tof_tracker_.reset();
    aoa_values_.clear();
    last_aoa_.reset();
  }
  switch (tof_tracker_.trend()) {
    case TofTrend::kIncreasing:
      macro_direction_ = MobilityMode::kMacroAway;
      macro_until_ = t + config_.macro_hold_s;
      break;
    case TofTrend::kDecreasing:
      macro_direction_ = MobilityMode::kMacroToward;
      macro_until_ = t + config_.macro_hold_s;
      break;
    case TofTrend::kNone:
      // §9 augmentation: constant distance but steadily swinging AoA means
      // the client is walking around the AP, not gesturing in place.
      if (config_.use_aoa && aoa_orbit_trend()) {
        macro_direction_ = MobilityMode::kMacroOrbit;
        macro_until_ = t + config_.macro_hold_s;
      }
      break;
  }
  mode_ = (t <= macro_until_) ? macro_direction_ : MobilityMode::kMicro;
}

bool MobilityClassifier::aoa_orbit_trend() const {
  const std::size_t n = aoa_values_.size();
  if (n < config_.aoa_trend_window) return false;
  const double dt = config_.csi_period_s;

  // Theil-Sen: median of all pairwise slopes (robust to beamscan outliers).
  std::vector<double> slopes;
  slopes.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      slopes.push_back((aoa_values_[j] - aoa_values_[i]) /
                       (static_cast<double>(j - i) * dt));
  const double slope = median_of(std::move(slopes));

  const double span_s = static_cast<double>(n - 1) * dt;
  if (std::abs(slope) < config_.aoa_min_rate_rad_s) return false;
  if (std::abs(slope) * span_s < config_.aoa_min_change_rad) return false;

  // Residual gate: gestures produce large-spread clouds around any fit.
  const double mid = median_of({aoa_values_.begin(), aoa_values_.end()});
  const double t_mid = span_s / 2.0;
  std::vector<double> residuals;
  residuals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double fitted = mid + slope * (static_cast<double>(i) * dt - t_mid);
    residuals.push_back(std::abs(aoa_values_[i] - fitted));
  }
  return median_of(std::move(residuals)) <= config_.aoa_max_residual_rad;
}

std::optional<double> MobilityClassifier::aoa() const { return last_aoa_; }

}  // namespace mobiwlan
