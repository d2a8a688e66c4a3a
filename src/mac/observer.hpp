// observer.hpp — what every protocol loop watches and reads off the medium.
//
// The AP does one thing for all of its protocols (§2, §3.1): it watches the
// serving link's CSI and the ToF of every AP (neighbours measure theirs via
// periodic NULL frames), and the classifier's decision then drives rate
// adaptation, aggregation, roaming and beamforming. MobilityObserver is that
// watching, once: the classifier, one heading tracker per neighbour unit,
// and the CSI/ToF cadences. FrameChannel is the other read every frame
// emulator makes: the true channel at an A-MPDU's preamble and at its end.
//
// Absence contract: a read the source cannot serve (fault-dropped export,
// trace gap) reaches neither the classifier nor a tracker; the classifier's
// hold-then-decay covers the gap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/mobility_classifier.hpp"
#include "core/tof_tracker.hpp"
#include "trace/source.hpp"
#include "util/inline_vec.hpp"

namespace mobiwlan {

class MobilityObserver {
 public:
  /// Watches units [0, n_units) of whatever source advance() is given. A
  /// single-unit observer (the single-link loops) builds no heading tracker.
  MobilityObserver(const MobilityClassifier::Config& config,
                   std::size_t n_units);

  /// Feeds every reading due by t, CSI first, then ToF: the serving unit's
  /// CSI and ToF to the classifier, each neighbour's ToF to its heading
  /// tracker, each ToF instant read in unit order.
  void advance(trace::ObservableSource& src, std::size_t serving, double t);

  /// A new serving AP: the classifier starts over, the heading trackers
  /// (the neighbours' own measurements) keep their state.
  void reassociate() { classifier_.reset(); }

  /// The §3.1 steering pick for a client walking away from `serving`: among
  /// the neighbours whose ToF trend decreases (the client heads toward
  /// them), the one whose scan RSSI is highest and at least
  /// serving_rssi - 1 dB ("similar or higher"); the last of equal readings
  /// wins. nullopt when no neighbour qualifies.
  std::optional<std::size_t> steer_target(trace::ObservableSource& src,
                                          std::size_t serving,
                                          double serving_rssi, double t) const;

  const MobilityClassifier& classifier() const { return classifier_; }

 private:
  MobilityClassifier classifier_;
  std::vector<TofTracker> heading_;  // one per unit; empty when n_units = 1
  std::size_t n_units_;
  double next_csi_t_ = 0.0;
  double next_tof_t_ = 0.0;
  CsiMatrix csi_;
};

/// The channel one A-MPDU sees, from the source's ground truth.
struct FrameChannel {
  CsiMatrix h_start;         ///< true CSI at the preamble (the estimate)
  CsiMatrix h_end;           ///< true CSI at the end of the frame
  double eff_snr_db = 0.0;   ///< effective SNR over h_start
  double decorr_end = 0.0;   ///< 1 - correlation(h_start, h_end): aging

  /// Reads true CSI at t, the SNR at t and true CSI at t + airtime_s, in
  /// that order, then measure()s them. A source that cannot serve one stops
  /// the loop `loop` with TraceError::kMissingStream naming the read
  /// ("h_start", "snr", "h_end").
  void read(trace::ObservableSource& src, std::uint32_t unit, double t,
            double airtime_s, const char* loop);

  /// Sets eff_snr_db to effective_snr_db(h_start, wideband_snr_db) and
  /// decorr_end to 1 - |<h_start, h_end>| / (||h_start|| ||h_end||) (1
  /// when the two differ in size, are empty or either has no power), both
  /// from one csi_pass (phy/error_model.hpp) over h_start and h_end. Every
  /// sum adds the same terms in the same order as a sweep of its own would,
  /// so the results are bit for bit those of separate sweeps, on every
  /// SIMD tier. Allocation-free up to 52 subcarriers, and beyond once the
  /// scratch has grown.
  void measure(double wideband_snr_db);

 private:
  /// Per-subcarrier |h_start|^2 sums. A 20 MHz link's 52 fit inline, so
  /// the frame loops make no allocation for them.
  InlineVec<double, kDefaultSubcarriers> pow_sc_;
};

}  // namespace mobiwlan
