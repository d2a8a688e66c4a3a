// trace_source.hpp — replaying an ObservableSource from a recorded trace.
//
// A trace is a set of per-(kind, unit) ordered logs of reads. TraceSource
// walks each log with a cursor: every query consumes exactly one in-tolerance
// record from its stream (duplicate timestamps are legal — a roaming scan
// reads the same AP twice at one instant — and are served in log order).
// Records are decoded from the file strictly forward in one pass, and only
// as far as the query needs: decoding stops at the first record of the
// queried stream that is not behind the query, the only one it can serve.
// A faithful replay therefore decodes each record exactly when its read
// comes, and memory is bounded by how far the interleaved consumers drift
// apart, never by trace length. Each stream keeps its pending records in a
// ring of recycled slots, so steady-state replay does not allocate.
//
// The arXiv 2002.03905 trace-replay pitfalls map to explicit behavior here:
//
//   timing skew      — in strict mode any query that does not align with the
//                      log within skew_tol_s throws kTimestampSkew (the
//                      replay-determinism gate runs strict); in relaxed mode
//                      skew is counted, never silently absorbed.
//   gaps             — a query falling in a recording hole returns *absence*,
//                      which consumers route through the classifier's
//                      hold-then-decay path. TraceSource never interpolates.
//                      max_age_s > 0 opts into serving the previous record
//                      while it is younger than the bound (for ragged
//                      external captures), still never synthesizing values.
//   missing feedback — has() reflects the header's stream mask, so
//                      ObservableSource::require() refuses to drive a
//                      consumer from a trace lacking its observables.
#pragma once

#include <memory>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace_io.hpp"

namespace mobiwlan::trace {

class TraceSource : public ObservableSource {
 public:
  struct Config {
    /// Queries within this of a record's timestamp match it. Recorded
    /// replays align exactly; the default only forgives representation-level
    /// jitter in imported traces. Must be finite and >= 0 (kBadConfig).
    double skew_tol_s = 1e-9;
    /// Relaxed mode only: serve the stream's previous record on a miss while
    /// it is at most this old. 0 = misses are absent (the gap contract).
    /// Must be finite and >= 0 (kBadConfig).
    double max_age_s = 0.0;
    /// Strict replay: any skipped record or unmatched query throws
    /// kTimestampSkew. Relaxed replay counts them instead.
    bool strict = true;
    /// Stream kinds discarded at decode time (stream_bit() mask). Set this
    /// when a consumer deliberately ignores streams present in the trace, so
    /// their pending records don't accumulate.
    std::uint32_t ignore_mask = 0;
  };

  /// Replay tallies: `served` in-tolerance matches with a value, `absent`
  /// matches against recorded absence records (the read was dropped when
  /// recorded), `held` misses covered by max_age_s, `missing` queries with no
  /// matching record at all, `skipped` records passed over by a later query
  /// (relaxed mode only), `decoded` records decoded into a stream (records of
  /// ignore_mask streams are not counted). A faithful strict replay keeps
  /// decoded == served + absent after every query: nothing is read ahead.
  struct Counters {
    std::uint64_t served = 0;
    std::uint64_t absent = 0;
    std::uint64_t held = 0;
    std::uint64_t missing = 0;
    std::uint64_t skipped = 0;
    std::uint64_t decoded = 0;
  };

  /// Opens the trace. Throws kBadConfig for a NaN, infinite or negative
  /// tolerance, then whatever TraceReader throws for the file.
  explicit TraceSource(const std::string& path) : TraceSource(path, Config{}) {}
  TraceSource(const std::string& path, Config config);

  std::size_t n_units() const override { return header().n_units; }
  bool has(StreamKind kind) const override {
    return header().has(kind) && (config_.ignore_mask & stream_bit(kind)) == 0;
  }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override;
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override;
  std::optional<double> snr_db(std::uint32_t unit, double t) override;
  std::optional<double> true_distance(std::uint32_t unit, double t) override;
  bool feedback_delivered(std::uint32_t unit, double t) override;

  const TraceHeader& header() const { return reader_.header(); }
  const Config& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  /// Restarts replay at the trace's first record with zeroed counters,
  /// keeping every decode buffer: replaying the same trace again does not
  /// allocate.
  void rewind();

 private:
  /// One (kind, unit) log. Its decoded, not yet consumed records sit in a
  /// power-of-two ring whose slots keep their CsiMatrix storage; consuming
  /// one swaps it with `current`, so buffers circulate instead of being
  /// freed and reallocated. The ring doubles when a record arrives while it
  /// is full (warm-up, or consumers drifting apart), and never shrinks.
  struct Stream {
    std::vector<TraceRecord> ring;
    std::size_t head = 0;  // oldest pending slot
    std::size_t size = 0;  // pending records
    TraceRecord current;   // last consumed record
    bool have_current = false;

    TraceRecord& front() { return ring[head]; }
    TraceRecord& back() { return ring[(head + size - 1) & (ring.size() - 1)]; }
    /// The slot the next decoded record goes into; grows a full ring.
    /// The record is pending only once push() commits it.
    TraceRecord& tail();
    void push() { ++size; }
    /// An emptied ring restarts at slot 0, so lockstep replay (one pending
    /// record at a time) cycles a single slot's buffer with `current`.
    void pop() {
      head = --size == 0 ? 0 : (head + 1) & (ring.size() - 1);
    }
  };

  Stream& stream(StreamKind kind, std::uint32_t unit);
  /// Decodes records forward until `s` holds one with timestamp >= t - tol
  /// (the only record a query at t can serve) or the file ends.
  void pump(Stream& s, double t);
  /// Consumes and returns the record matching (kind, unit, t), nullptr on an
  /// uncovered miss. Throws kTimestampSkew per the strictness contract.
  const TraceRecord* fetch(StreamKind kind, std::uint32_t unit, double t);
  std::optional<double> fetch_scalar(StreamKind kind, std::uint32_t unit,
                                     double t);
  bool fetch_csi(StreamKind kind, std::uint32_t unit, double t,
                 CsiMatrix& out);

  Config config_;  // before reader_: validated before the file is opened
  TraceReader reader_;
  Counters counters_;
  std::vector<Stream> streams_;  // [kind * n_units + unit]
  TraceRecord scratch_;          // decode target of ignore_mask records
  bool reader_done_ = false;
};

}  // namespace mobiwlan::trace
