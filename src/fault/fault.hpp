// fault.hpp — deterministic fault injection for PHY observables.
//
// The paper's system runs on firmware-exported observables that are
// unreliable in practice: CSI reports get dropped or arrive late, ToF
// exports are bursty, and §3 explicitly falls back when PHY hints are
// missing. This layer injects exactly those failure shapes between the
// channel simulator and every consumer:
//
//   * Bernoulli drop     — each reading independently lost with drop_prob;
//   * burst loss         — Poisson-arriving outages of uniform length,
//                          during which every reading of the stream is lost
//                          (a firmware export path wedging, an A-MPDU storm
//                          starving the CSI FIFO);
//   * staleness/delay    — readings reflect the channel delay_s ago (export
//                          queueing): the consumer never sees an observable
//                          newer than its injection delay;
//   * RSSI-only fallback — CSI and ToF export entirely unavailable (stock
//                          firmware): only RSSI survives.
//
// Determinism contract: every fault decision draws from counter-based
// `Rng::stream` substreams of FaultPlan::seed, keyed by (unit, stream kind)
// — never from the channel's own generator and never from shared state — so
// faulted runs are bit-identical across --jobs counts, and an all-zero plan
// performs no draws at all, leaving the unfaulted path bitwise unchanged.
#pragma once

#include <cstdint>
#include <optional>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "util/rng.hpp"

namespace mobiwlan {

/// Fault knobs for one observable stream.
struct StreamFault {
  double drop_prob = 0.0;     ///< independent per-reading loss probability
  double burst_rate_hz = 0.0; ///< Poisson arrival rate of loss bursts
  double burst_min_s = 0.0;   ///< burst length ~ U[min, max]
  double burst_max_s = 0.0;
  double delay_s = 0.0;       ///< readings reflect the channel delay_s ago

  bool any() const {
    return drop_prob > 0.0 || burst_rate_hz > 0.0 || delay_s > 0.0;
  }
};

/// A complete fault scenario over the four observable streams.
struct FaultPlan {
  StreamFault csi;
  StreamFault tof;
  StreamFault rssi;
  StreamFault feedback;  ///< PHY feedback on acked frames (CSI piggyback)
  /// Stock-firmware fallback: CSI and ToF exports do not exist at all.
  bool rssi_only = false;
  /// Seed for the fault substreams. Derive per trial from the trial Rng so
  /// paired runs stay independent yet reproducible.
  std::uint64_t seed = 0;

  bool any() const {
    return rssi_only || csi.any() || tof.any() || rssi.any() || feedback.any();
  }
};

/// Substream key: which observable a FaultStream gates.
enum class FaultStreamKind { kCsi = 0, kTof = 1, kRssi = 2, kFeedback = 3 };

/// Per-stream fault process. Default-constructed = zero-fault: deliver()
/// is always true and no random draws ever happen.
class FaultStream {
 public:
  FaultStream() = default;
  FaultStream(const StreamFault& fault, Rng drop_rng, Rng burst_rng);

  /// Whether the reading taken at time t reaches the consumer. Times must be
  /// non-decreasing per stream (the burst process advances with t).
  bool deliver(double t);

  /// The channel time a reading handed out at t actually describes
  /// (clamped at 0 before the first export could have happened).
  double measured_t(double t) const {
    const double shifted = t - fault_.delay_s;
    return shifted > 0.0 ? shifted : 0.0;
  }

  double delay_s() const { return fault_.delay_s; }

 private:
  StreamFault fault_{};
  bool drops_active_ = false;  ///< drop_prob or bursts configured
  Rng drop_rng_{0};
  Rng burst_rng_{0};
  double burst_start_ = 0.0;
  double burst_end_ = 0.0;
  bool bursts_active_ = false;
};

/// Builds the fault process for one (plan, kind, unit) triple. `unit`
/// distinguishes independent links (e.g. the AP index in a deployment);
/// the substream id is a pure function of (unit, kind), so construction
/// order and thread count cannot change the sequence.
FaultStream make_stream(const FaultPlan& plan, FaultStreamKind kind,
                        std::uint64_t unit = 0);

/// The degraded view of one AP-client link: every observable passes through
/// its fault process. A dropped reading returns nullopt AND leaves the
/// channel's generator untouched (the reading was lost in export, not
/// taken differently), so a zero-fault plan reproduces the raw channel
/// call-for-call and bit-for-bit.
class DegradedObservables {
 public:
  DegradedObservables(WirelessChannel& channel, const FaultPlan& plan,
                      std::uint64_t unit = 0);

  /// Measured CSI, if the export survives (nullopt under rssi_only).
  std::optional<CsiMatrix> csi(double t);

  /// One ToF reading, if the export survives (nullopt under rssi_only).
  std::optional<double> tof_cycles(double t);

  /// Quantized RSSI, if the reading survives (available under rssi_only).
  std::optional<double> rssi_dbm(double t);

  /// Whether the PHY feedback piggybacked on the frame acked at t survives.
  bool feedback_delivered(double t);

  WirelessChannel& channel() { return channel_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  WirelessChannel& channel_;
  FaultPlan plan_;
  ChannelBatch::Scratch scratch_;
  FaultStream csi_;
  FaultStream tof_;
  FaultStream rssi_;
  FaultStream feedback_;
};

}  // namespace mobiwlan
