// mobility_classifier.hpp — the paper's primary contribution (Fig. 5).
//
// The AP classifies each client's mobility using only PHY information it
// already sees on data-ACK exchanges:
//
//   CSI similarity (moving average)        ToF trend (when device-mobile)
//   ---------------------------------      -----------------------------
//   S > Thr_sta (0.98)  -> Static          increasing -> Macro, moving away
//   S > Thr_env (0.7)   -> Environmental   decreasing -> Macro, moving toward
//   otherwise           -> device mobile   no trend   -> Micro
//
// ToF measurement starts only when CSI indicates device mobility and stops
// (state cleared) when it no longer does, exactly as in the paper's flow
// chart. No client-side cooperation or sensors are involved.
#pragma once

#include <cstdint>
#include <optional>

#include "core/csi_similarity.hpp"
#include "core/mobility_mode.hpp"
#include "core/tof_tracker.hpp"
#include "phy/csi.hpp"
#include "util/filters.hpp"
#include "util/inline_vec.hpp"

namespace mobiwlan {

struct ChannelSample;  // chan/channel.hpp; convenience overload only

class MobilityClassifier {
 public:
  struct Config {
    double thr_sta = 0.98;        ///< §2.3
    double thr_env = 0.70;        ///< §2.3
    double csi_period_s = 0.5;    ///< consecutive-sample spacing for Eq. (1)
    std::size_t similarity_window = 5;  ///< moving average over similarities
    double tof_period_s = 0.02;   ///< raw ToF sampling (§2.5: every 20 ms)
    TofTracker::Config tof;       ///< median/trend parameters
    /// Hold a detected macro state for this long past the last confirming
    /// trend, bridging the gaps between sliding windows.
    double macro_hold_s = 3.5;

    /// Graceful degradation on CSI starvation (§3: the controller falls back
    /// when PHY hints are missing). decision(t) keeps reporting the current
    /// mode for this long past the last accepted CSI sample, then decays to
    /// "no decision" so consumers can fall back instead of acting on stale
    /// state. Unfaulted feeds arrive every csi_period_s, far inside the hold.
    double csi_stale_hold_s = 2.0;
    /// A CSI sample arriving more than this many periods after the previous
    /// one re-anchors the similarity stream (Eq. (1) compares *consecutive*
    /// samples; comparing across a multi-second hole measures the gap, not
    /// the channel). The similarity average restarts from the fresh anchor.
    double csi_gap_reanchor_factor = 2.5;

    /// §9 AoA augmentation: when enabled, a device-mobile client with no ToF
    /// trend but a steadily swinging Angle-of-Arrival at the AP array is
    /// classified kMacroOrbit instead of micro (a client circling the AP).
    ///
    /// Beamscan estimates are noisy (fading occasionally hands the peak to a
    /// reflection), so the detector fits a Theil-Sen (median-of-pairwise-
    /// slopes) line over the window and demands BOTH a sustained angular
    /// rate AND small residuals — gestures produce large-spread, trendless
    /// estimate clouds; orbits produce tight steady ramps.
    bool use_aoa = false;
    std::size_t aoa_trend_window = 16;     ///< decimated CSI samples (~8 s)
    double aoa_min_rate_rad_s = 0.05;      ///< minimum |angular rate|
    double aoa_min_change_rad = 0.30;      ///< minimum swing across the window
    double aoa_max_residual_rad = 0.15;    ///< max median absolute residual
  };

  MobilityClassifier() : MobilityClassifier(Config{}) {}
  explicit MobilityClassifier(Config config);

  /// Feed a CSI observation. The classifier decimates internally: only
  /// samples >= csi_period_s apart enter the similarity computation, so
  /// callers may feed every received packet.
  void on_csi(double t, const CsiMatrix& csi);

  /// Restores the just-constructed state while keeping every internal
  /// buffer's capacity — the session-pool recycle path: a reused classifier
  /// behaves bitwise like a freshly constructed one, without reallocating.
  void reset();

  /// Feed one raw ToF reading (round-trip clock cycles). Ignored unless the
  /// classifier has started ToF measurement (i.e. CSI says device mobility).
  void on_tof(double t, double tof_cycles);

  /// Convenience: feed a full channel observation.
  void observe(const ChannelSample& sample);

  /// Current mobility decision.
  MobilityMode mode() const { return mode_; }

  /// The mobility decision a consumer should act on at time t, or nullopt
  /// when the classifier cannot justify one: similarity is not established
  /// yet, or the CSI stream has been silent longer than csi_stale_hold_s
  /// (hold-then-decay on observable starvation). With an on-schedule CSI
  /// feed this is exactly mode() whenever similarity() is set.
  std::optional<MobilityMode> decision(double t) const;

  /// Moving-average CSI similarity (nullopt until two decimated samples).
  std::optional<double> similarity() const;

  /// Whether ToF measurement is currently running (Fig. 5's start/stop box).
  bool tof_active() const { return tof_active_; }

  /// Latest AoA estimate in radians (AoA augmentation only).
  std::optional<double> aoa() const;

  const Config& config() const { return config_; }

 private:
  void update_mode(double t);

  Config config_;
  MovingAverage similarity_avg_;
  // Anchored Eq.-1 state: instead of retaining the anchor's complex CSI and
  // recomputing both magnitude planes per comparison, the classifier caches
  // the anchor's magnitude pass (CsiAnchor) and computes only the incoming
  // sample's — bitwise the same similarity at half the arithmetic and
  // roughly half the per-classifier memory. anchors_[anchor_] is the anchor;
  // the other slot receives the incoming sample's pass and becomes the new
  // anchor by flipping the index, so no plane is ever copied.
  CsiAnchor anchors_[2];
  std::uint8_t anchor_ = 0;
  bool have_anchor_ = false;
  double last_csi_t_ = 0.0;
  bool have_similarity_ = false;

  TofTracker tof_tracker_;
  bool tof_active_ = false;

  bool aoa_orbit_trend() const;

  // Oldest first; capped at aoa_trend_window (16 by default, inline).
  InlineVec<double, 16> aoa_values_;
  std::optional<double> last_aoa_;

  MobilityMode mode_ = MobilityMode::kStatic;
  double macro_until_ = -1.0;
  MobilityMode macro_direction_ = MobilityMode::kMacroAway;
};

}  // namespace mobiwlan
