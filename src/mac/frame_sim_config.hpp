// frame_sim_config.hpp — the up-front config check shared by the frame
// simulators (simulate_link, simulate_latency, simulate_overall), the
// roaming control loop (simulate_roaming), the beamforming emulators
// (simulate_su_beamforming, simulate_mu_mimo) and the classifier trial loop
// (runtime::run_classifier).
//
// Each of them advances time frame by frame (or tick by tick) and catches
// the classifier up on its CSI/ToF cadences (MobilityObserver::advance,
// mac/observer.hpp; the trial loop steps at the ToF period). A zero,
// negative or NaN period or slot never lets time or a cadence move on, an
// infinite duration never ends, and a negative payload makes airtime (and
// so time itself) run backwards. simulate_link's interference bursts and
// TCP stall have the same failure modes. They reject such configs before
// the first frame instead.
#pragma once

#include <stdexcept>
#include <string>

#include "core/mobility_classifier.hpp"

namespace mobiwlan {

/// A frame-simulator config that cannot run to completion, with the reason
/// as a code.
class FrameSimConfigError : public std::invalid_argument {
 public:
  enum class Code {
    kBadDuration,     ///< duration_s not finite and > 0
    kBadPayload,      ///< mpdu_payload_bytes < 0 (< 1 where losses are drawn)
    kBadCsiPeriod,    ///< classifier on and csi_period_s not finite and > 0
    kBadTofPeriod,    ///< classifier on and tof_period_s not finite and > 0
    kBadOfferedLoad,  ///< simulate_latency: offered_pps not finite and > 0
    kBadSlot,         ///< a fixed time step not finite and > 0: the
                      ///< beamforming emulators' slot_s, roaming's step_s
    kBadInterference,  ///< simulate_link: burst rate not finite and >= 0,
                       ///< or a rate > 0 with burst bounds not finite and
                       ///< 0 <= min <= max
    kBadTcpStall,      ///< simulate_link: tcp_stall_s not finite and >= 0
  };

  FrameSimConfigError(Code code, const std::string& what)
      : std::invalid_argument(what), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

/// Throws FrameSimConfigError(code), naming `who` and `field`, unless `v`
/// is finite and > 0.
void require_finite_positive(FrameSimConfigError::Code code, const char* who,
                             const char* field, double v);

/// Throws FrameSimConfigError (message prefixed with `who`) for the fields
/// every frame simulator shares. `classifier` is null when the classifier
/// is off; its cadences are then never read and go unchecked.
void validate_frame_sim_config(const char* who, double duration_s,
                               int mpdu_payload_bytes,
                               const MobilityClassifier::Config* classifier);

/// Throws FrameSimConfigError (message prefixed with `who`) for
/// simulate_link's disturbances. A NaN or negative burst rate would run
/// with no bursts at all; a burst of negative length can move the burst
/// process backwards faster than it advances, so its catch-up loop never
/// ends; and a negative TCP stall runs time backwards. The burst bounds are
/// only read at a rate > 0.
void validate_link_disturbances(const char* who, double burst_rate_hz,
                                double burst_min_s, double burst_max_s,
                                double tcp_stall_s);

/// Throws FrameSimConfigError(kBadPayload) unless mpdu_payload_bytes >= 1.
/// The loops that draw A-MPDU losses (simulate_link, simulate_latency,
/// simulate_overall) decide them against a PER grid, which an empty
/// payload has none of; an empty MPDU is lost at no SNR anyway.
void require_loss_payload(const char* who, int mpdu_payload_bytes);

}  // namespace mobiwlan
