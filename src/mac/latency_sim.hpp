// latency_sim.hpp — per-MPDU delivery latency under aggregation policies.
//
// The throughput simulator (mac/link_sim.*) treats a lost MPDU as lost
// goodput; real MACs retransmit it under the Block ACK agreement, so losses
// cost *delay*, not data. That matters for the paper's §9 real-time-traffic
// discussion and for aggregation policy: a long A-MPDU under mobility loses
// its tail, and those MPDUs head-of-line block the window until they get
// through. This simulator runs a constant-bit-rate flow through the full
// Block ACK machinery and reports the delivery-latency distribution.
#pragma once

#include <vector>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "fault/fault.hpp"
#include "mac/aggregation.hpp"
#include "mac/blockack.hpp"
#include "mac/rate_adaptation.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"
#include "util/stats.hpp"

namespace mobiwlan {

struct LatencySimConfig {
  double duration_s = 15.0;
  int mpdu_payload_bytes = 1500;
  /// Offered load (packets/s). Keep below the link's capacity so latency
  /// reflects MAC behaviour rather than queue buildup.
  double offered_pps = 2000.0;

  AggregationPolicy aggregation;
  BlockAckWindow::Config blockack;
  ErrorModelConfig error_model;
  AirtimeConfig airtime;
  MobilityClassifier::Config classifier;
  bool run_classifier = true;

  /// PHY-observable fault injection; an all-zero plan is bitwise-identical
  /// to the unfaulted path.
  FaultPlan fault;
};

struct LatencySimResult {
  SampleSet latencies_s;   ///< enqueue -> acknowledged, per delivered MPDU
  int delivered = 0;       ///< acked at or before duration_s
  int dropped = 0;         ///< retry limit exceeded
  /// CBR arrivals in [0, duration_s) — every one of them is accounted for:
  /// offered == delivered + dropped + leftover.
  int offered = 0;
  /// Still queued / in flight / awaiting retransmission when time ran out.
  int leftover = 0;
  double goodput_mbps = 0.0;
};

/// The loss draw of one simulate_latency frame: ampdu_mpdu_losses decides
/// its n_mpdus MPDUs from `rng` against `grid`, and the loss mask is
/// written out as each MPDU's delivery, in MPDU order, into `delivered`
/// (resized to n_mpdus) for the Block ACK window. Returns the number lost.
/// Allocation-free once `delivered` has capacity for n_mpdus;
/// simulate_latency reserves kMaxAmpduMpdus once and reuses it every
/// frame.
int draw_ampdu_deliveries(const McsEntry& mcs_entry, double snr_db,
                          double decorr_end, int n_mpdus, const PerGrid& grid,
                          Rng& rng, std::vector<bool>& delivered);

/// Run a CBR downlink through the Block ACK machinery. Applies config.fault
/// via a FaultedSource and delegates to the source-driven overload.
LatencySimResult simulate_latency(Scenario& scenario, RateAdapter& ra,
                                  const LatencySimConfig& config, Rng& rng);

/// Source-driven overload (live channel, recording tee, or trace replay;
/// unit 0). config.fault is NOT applied here — compose a FaultedSource when
/// faulting a live or replayed source. Both overloads throw
/// FrameSimConfigError (mac/frame_sim_config.hpp) for a config they cannot
/// run to completion.
LatencySimResult simulate_latency(trace::ObservableSource& src, RateAdapter& ra,
                                  const LatencySimConfig& config, Rng& rng);

}  // namespace mobiwlan
