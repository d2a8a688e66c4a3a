// link_sim.hpp — frame-level simulation of one AP->client link.
//
// Drives a RateAdapter and an aggregation policy over a WirelessChannel,
// frame by frame: the AP classifies the client's mobility from the CSI/ToF
// it sees on data-ACK exchanges, the rate adapter picks an MCS, an A-MPDU is
// composed under the aggregation limit, per-MPDU losses are drawn from the
// PHY error model (including intra-frame channel aging), and the Block ACK
// feeds the rate adapter. This is the engine behind the §4 (rate control)
// and §5 (aggregation) experiments, and the per-link inner loop of §7.
//
// Determinism: given equal seeds, the channel realization is identical
// across runs, so competing schemes face identical channel conditions — the
// same methodological device as the paper's trace-based emulation (§4.3).
#pragma once

#include <vector>

#include <optional>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "fault/fault.hpp"
#include "mac/aggregation.hpp"
#include "mac/rate_adaptation.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"
#include "util/rng.hpp"

namespace mobiwlan {

struct LinkSimConfig {
  double duration_s = 20.0;
  int mpdu_payload_bytes = 1500;

  AggregationPolicy aggregation;
  ErrorModelConfig error_model;
  AirtimeConfig airtime;

  /// PHY-observable fault injection (CSI/ToF/feedback exports). An all-zero
  /// plan is bitwise-identical to the unfaulted path. The sensor hint is a
  /// client accelerometer, not a PHY export, so it is never faulted here.
  FaultPlan fault;

  /// Feed the AP-side classifier and expose its output in TxContext.
  bool run_classifier = true;
  MobilityClassifier::Config classifier;

  /// §9 uplink deployment: the classifier runs at the AP (only it sees ToF),
  /// but for uplink traffic the *client* runs the rate adapter, learning the
  /// AP's classification from periodic advertisements (e.g. a vendor IE in
  /// beacons). This delay staleness-filters the hints the RA sees:
  /// the mode exposed at time t is the classification as of the last
  /// advertisement. 0 = co-located (downlink, the default).
  double mobility_hint_latency_s = 0.0;

  /// Expose the ground-truth accelerometer hint (device in motion) —
  /// only the sensor-hint baseline consumes it.
  bool provide_sensor_hint = false;

  /// Expose client PHY feedback (previous-frame ESNR and BER) — only the
  /// SoftRate / ESNR baselines consume it.
  bool provide_phy_feedback = false;

  /// Transient co-channel interference: Poisson bursts during which every
  /// MPDU on air is lost at any rate. These are §4.2's "transient conditions
  /// such as fast fading or interference" — the events the mobility-aware RA
  /// rides out by retrying at the current rate instead of stepping down.
  double interference_burst_rate_hz = 0.4;
  double interference_burst_min_s = 5e-3;
  double interference_burst_max_s = 25e-3;

  /// TCP approximation (DESIGN.md §4): the MAC absorbs an isolated lost
  /// exchange via immediate retransmission, but when total losses persist
  /// (2+ consecutive exchanges with no Block ACK) the TCP sender loses its
  /// self-clocking; each further total loss stalls it this long. 0 = UDP.
  double tcp_stall_s = 0.0;
};

struct LinkSimResult {
  double goodput_mbps = 0.0;
  double mean_per = 0.0;        ///< delivered-weighted packet error rate
  int frames = 0;
  int mpdus_sent = 0;
  int mpdus_lost = 0;
  int full_loss_events = 0;  ///< exchanges that got no Block ACK at all
  /// (time, MCS) at every rate change, for time-series figures.
  std::vector<std::pair<double, int>> mcs_series;
  /// (time, classified mode) at every classification change.
  std::vector<std::pair<double, MobilityMode>> mode_series;
};

/// Run a saturated downlink over the scenario's channel. Applies
/// config.fault via a FaultedSource and delegates to the source-driven
/// overload below.
LinkSimResult simulate_link(Scenario& scenario, RateAdapter& ra,
                            const LinkSimConfig& config, Rng& rng);

/// Source-driven overload: the same loop over any ObservableSource (live
/// channel, recording tee, or trace replay; unit 0). config.fault is NOT
/// applied here — compose a FaultedSource yourself when faulting a live or
/// replayed source. `sensor_truth` replaces scenario.truth for the
/// accelerometer hint (only read when config.provide_sensor_hint). Both
/// overloads throw FrameSimConfigError (mac/frame_sim_config.hpp) for a
/// config they cannot run to completion.
LinkSimResult simulate_link(trace::ObservableSource& src, RateAdapter& ra,
                            const LinkSimConfig& config, Rng& rng,
                            std::optional<MobilityClass> sensor_truth = {});

}  // namespace mobiwlan
