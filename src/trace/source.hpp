// source.hpp — the observable-source abstraction behind every protocol loop.
//
// The paper's protocols consume PHY observables (CSI, RSSI, ToF, SNR) that
// this repo historically read straight off the live synthetic channel.
// ObservableSource puts one interface in front of those reads so the same
// protocol code runs in three modes:
//
//   synthetic          — LiveChannelSource / LiveDeploymentSource read the
//                        WirelessChannel / WlanDeployment through the
//                        ChannelBatch link entry points, in the loop's own
//                        call order (so the link's RNG draws are the ones a
//                        direct read would make);
//   recorded-synthetic — RecordingSource tees every successful read into a
//                        TraceWriter ("stream of reads": because the loops
//                        are deterministic given their config and seed,
//                        logging each read at its query time makes replay
//                        bit-identical by construction, even for
//                        decision-dependent query times);
//   replayed           — trace::TraceSource (trace_source.hpp) serves the
//                        same reads back from the recorded log.
//
// FaultedSource composes PR 5's fault layer over any source: drops and
// staleness apply identically to a live channel or a replayed trace, and a
// dropped reading never touches the inner source (the export was lost, not
// taken differently) — the same bitwise-invisibility contract
// DegradedObservables keeps.
//
// Absence contract: a read returns false / nullopt when the observable is
// not available (dropped by a fault process, or missing from a replayed
// trace). Consumers already treat absence as "export lost" and route it
// through the classifier's hold-then-decay path — gaps are never silently
// interpolated.
#pragma once

#include <initializer_list>
#include <optional>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "fault/fault.hpp"
#include "trace/format.hpp"
#include "trace/trace_io.hpp"

namespace mobiwlan::trace {

class ObservableSource {
 public:
  virtual ~ObservableSource() = default;

  /// Number of links (APs) this source observes.
  virtual std::size_t n_units() const = 0;

  /// Whether this source can ever serve the given stream.
  virtual bool has(StreamKind kind) const = 0;

  // Matrix reads fill `out` and return true when the observable is
  // available; scalar reads return nullopt when it is not.
  virtual bool csi(std::uint32_t unit, double t, CsiMatrix& out) = 0;
  virtual bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) = 0;
  virtual bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) = 0;
  virtual std::optional<double> rssi_dbm(std::uint32_t unit, double t) = 0;
  virtual std::optional<double> scan_rssi_dbm(std::uint32_t unit,
                                              double t) = 0;
  virtual std::optional<double> tof_cycles(std::uint32_t unit, double t) = 0;
  virtual std::optional<double> snr_db(std::uint32_t unit, double t) = 0;
  virtual std::optional<double> true_distance(std::uint32_t unit,
                                              double t) = 0;

  /// Whether PHY feedback piggybacked on the frame acked at t survives.
  /// Delivery is a fault-layer property, not a recorded observable: only
  /// FaultedSource overrides it.
  virtual bool feedback_delivered(std::uint32_t unit, double t) {
    (void)unit;
    (void)t;
    return true;
  }

  /// The controller's neighbor ToF sweep: one reading per unit at time t
  /// into out[0..n_units). Default: per-unit tof_cycles in unit order.
  /// LiveDeploymentSource overrides with the batched sweep (same per-link
  /// draw order, so both paths are bitwise-equal).
  virtual void tof_sweep(double t, std::optional<double>* out);

  /// Unit with the strongest scan RSSI at t (first wins on ties), or nullopt
  /// when no scan reading is available. Default: per-unit scan_rssi_dbm in
  /// unit order — the draw sequence WlanDeployment::strongest_ap's batched
  /// scan is bitwise-equal to.
  virtual std::optional<std::size_t> strongest_unit(double t);

  /// The missing-feedback check (arXiv 2002.03905): refuses to run a
  /// consumer over a source lacking a stream it requires, instead of letting
  /// replay silently produce absence for every read. Throws
  /// TraceError::Code::kMissingStream naming the consumer and the streams.
  void require(std::initializer_list<StreamKind> kinds,
               const char* consumer) const;
};

/// Live single-link source over one WirelessChannel. Unit 0 only.
class LiveChannelSource : public ObservableSource {
 public:
  explicit LiveChannelSource(WirelessChannel& channel) : channel_(channel) {}

  std::size_t n_units() const override { return 1; }
  bool has(StreamKind) const override { return true; }

  bool csi(std::uint32_t, double t, CsiMatrix& out) override {
    ChannelBatch::csi_link(channel_, t, out, scratch_);
    return true;
  }
  bool csi_feedback(std::uint32_t u, double t, CsiMatrix& out) override {
    return csi(u, t, out);
  }
  bool csi_true(std::uint32_t, double t, CsiMatrix& out) override {
    ChannelBatch::csi_true_link(channel_, t, out, scratch_);
    return true;
  }
  std::optional<double> rssi_dbm(std::uint32_t, double t) override {
    return ChannelBatch::rssi_link(channel_, t, scratch_);
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double t) override {
    return rssi_dbm(u, t);
  }
  std::optional<double> tof_cycles(std::uint32_t, double t) override {
    return channel_.tof_cycles(t);
  }
  std::optional<double> snr_db(std::uint32_t, double t) override {
    return ChannelBatch::snr_link(channel_, t, scratch_);
  }
  std::optional<double> true_distance(std::uint32_t, double t) override {
    return channel_.true_distance(t);
  }

  WirelessChannel& channel() { return channel_; }

 private:
  WirelessChannel& channel_;
  ChannelBatch::Scratch scratch_;
};

/// Tee: forwards every read to `inner` and logs each one to the writer at
/// its query time — present reads with their value, absent reads as absence
/// records, feedback-delivery checks as the kFeedbackOk stream — so a
/// degraded run replays with its exact absence pattern. strongest_unit()
/// deliberately uses the base per-unit sweep so every scan reading is
/// individually recorded (bitwise equal to the batched scan); tof_sweep()
/// forwards to the inner (batched) sweep to preserve its draw lockstep, then
/// records the per-unit readings.
class RecordingSource : public ObservableSource {
 public:
  RecordingSource(ObservableSource& inner, TraceWriter& writer)
      : inner_(inner), writer_(writer) {}

  std::size_t n_units() const override { return inner_.n_units(); }
  bool has(StreamKind kind) const override { return inner_.has(kind); }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override;
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override;
  std::optional<double> snr_db(std::uint32_t unit, double t) override;
  std::optional<double> true_distance(std::uint32_t unit, double t) override;
  bool feedback_delivered(std::uint32_t unit, double t) override;
  void tof_sweep(double t, std::optional<double>* out) override;

  /// The header a recording over `src` should carry: geometry from the
  /// channel config, all streams the source can serve.
  static TraceHeader header_for(const ObservableSource& src,
                                const ChannelConfig& config);

 private:
  std::optional<double> log_scalar(StreamKind kind, std::uint32_t unit,
                                   double t, std::optional<double> v);

  ObservableSource& inner_;
  TraceWriter& writer_;
};

/// Fault-composed view over any source: PR 5's FaultPlan applied per unit.
/// Dropped reads skip the inner source entirely; delayed reads query it at
/// measured_t. Over a live source with unit 0 this is draw-for-draw
/// identical to DegradedObservables; over a TraceSource it injects drops
/// and staleness into replay deterministically.
class FaultedSource : public ObservableSource {
 public:
  FaultedSource(ObservableSource& inner, const FaultPlan& plan);

  std::size_t n_units() const override { return inner_.n_units(); }
  bool has(StreamKind kind) const override { return inner_.has(kind); }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override {
    return inner_.csi_feedback(unit, t, out);  // active exchange, never faulted
  }
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override {
    return inner_.csi_true(unit, t, out);  // emulator ground truth
  }
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override {
    return inner_.scan_rssi_dbm(unit, t);  // client-side fresh measurement
  }
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override;
  std::optional<double> snr_db(std::uint32_t unit, double t) override {
    return inner_.snr_db(unit, t);
  }
  std::optional<double> true_distance(std::uint32_t unit, double t) override {
    return inner_.true_distance(unit, t);
  }
  bool feedback_delivered(std::uint32_t unit, double t) override;

  /// Scans are client-side fresh measurements: pass through so a batched
  /// inner scan (LiveDeploymentSource) keeps its fast path.
  std::optional<std::size_t> strongest_unit(double t) override {
    return inner_.strongest_unit(t);
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  ObservableSource& inner_;
  FaultPlan plan_;
  std::vector<FaultStream> csi_fault_;
  std::vector<FaultStream> tof_fault_;
  std::vector<FaultStream> rssi_fault_;
  std::vector<FaultStream> feedback_fault_;
};

}  // namespace mobiwlan::trace
