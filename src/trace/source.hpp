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
// FaultedSource composes the fault layer (fault/fault.hpp) over any source
// and is the only way faults reach a protocol loop: every loop's live
// overload wraps its source in one, so a recording holds the absences and
// replays without the plan. Drops and staleness apply identically to a live
// channel or a replayed trace, and a dropped reading never touches the
// inner source (the export was lost, not taken differently), so an all-zero
// plan is bitwise invisible.
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

  /// The client's full scan: the unit with the strongest scan RSSI at t
  /// (first wins on ties), or nullopt when no scan reading is available.
  /// Reads scan_rssi_dbm once per unit, in unit order.
  std::optional<std::size_t> strongest_unit(double t);

  /// The missing-feedback check (arXiv 2002.03905): refuses to run a
  /// consumer over a source lacking a stream it requires, instead of letting
  /// replay silently produce absence for every read. Throws
  /// TraceError::Code::kMissingStream naming the consumer and the streams.
  void require(std::initializer_list<StreamKind> kinds,
               const char* consumer) const;
};

/// Throws TraceError::Code::kMissingStream: "<loop>: ground-truth <kind>
/// unavailable from source: <what>". Out of line so the inline reads below
/// stay a compare and a branch.
[[noreturn]] void throw_missing_ground(const char* loop, const char* kind,
                                       const char* what);

/// The emulator's ground truth (true CSI, SNR) models the medium itself, not
/// a lossy firmware export, so every protocol loop reads it through these:
/// a source that cannot serve it cannot drive the loop. `loop` names the
/// consumer ("link sim"), `what` the read ("h_start").
inline double ground(std::optional<double> v, const char* loop,
                     const char* what) {
  if (!v) throw_missing_ground(loop, "observable", what);
  return *v;
}

inline void ground_csi(bool ok, const char* loop, const char* what) {
  if (!ok) throw_missing_ground(loop, "CSI", what);
}

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
/// degraded run replays with its exact absence pattern. A scan
/// (strongest_unit) is its per-unit scan reads, so each is recorded.
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

/// Fault-composed view over any source: a FaultPlan applied per unit, each
/// unit's fault processes keyed by its index. A dropped read never touches
/// the inner source (the link's generator is left untouched); a delayed
/// read queries it at measured_t. Over a live source an all-zero plan
/// reproduces the raw channel call for call; over a TraceSource it injects
/// drops and staleness into replay deterministically.
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
