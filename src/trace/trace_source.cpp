#include "trace/trace_source.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mobiwlan::trace {

namespace {

std::string at(StreamKind kind, std::uint32_t unit, double t) {
  return std::string(to_string(kind)) + "/unit " + std::to_string(unit) +
         " at t=" + std::to_string(t);
}

/// A tolerance that is NaN, infinite or negative makes every query miss
/// (or, strictly, throw a misleading kTimestampSkew), so it is refused up
/// front.
void check_tolerance(const char* field, double v) {
  if (std::isfinite(v) && v >= 0.0) return;
  throw TraceError(TraceError::Code::kBadConfig,
                   std::string("trace replay: ") + field +
                       " must be finite and >= 0, got " + std::to_string(v));
}

const TraceSource::Config& checked(const TraceSource::Config& config) {
  check_tolerance("skew_tol_s", config.skew_tol_s);
  check_tolerance("max_age_s", config.max_age_s);
  return config;
}

// Slots a stream's ring starts with. A faithful replay consumes each record
// as soon as it is decoded, so rings only grow while consumers drift apart.
constexpr std::size_t kInitialSlots = 4;

}  // namespace

TraceSource::TraceSource(const std::string& path, Config config)
    : config_(checked(config)), reader_(path) {
  streams_.resize(kNumStreamKinds * header().n_units);
}

void TraceSource::rewind() {
  reader_.rewind();
  for (Stream& s : streams_) {
    s.head = 0;
    s.size = 0;
    s.have_current = false;
  }
  counters_ = Counters{};
  reader_done_ = false;
}

TraceRecord& TraceSource::Stream::tail() {
  if (size == ring.size()) {
    // Full: unroll the pending records into a ring twice the size. Moves
    // carry each slot's matrix storage along.
    std::vector<TraceRecord> grown(std::max(kInitialSlots, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i)
      grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    ring.swap(grown);
    head = 0;
  }
  return ring[(head + size) & (ring.size() - 1)];
}

TraceSource::Stream& TraceSource::stream(StreamKind kind, std::uint32_t unit) {
  return streams_[static_cast<std::size_t>(kind) * header().n_units + unit];
}

void TraceSource::pump(Stream& s, double t) {
  const double floor = t - config_.skew_tol_s;
  while (!reader_done_ && (s.size == 0 || s.back().t < floor)) {
    const TraceReader::Head* head = reader_.peek();
    if (head == nullptr) {
      reader_done_ = true;
      break;
    }
    if ((config_.ignore_mask & stream_bit(head->kind)) != 0) {
      reader_.next(scratch_);
      continue;
    }
    // Decode straight into the record's own stream; it becomes pending only
    // once its payload decoded in full.
    Stream& dst = stream(head->kind, head->unit);
    reader_.next(dst.tail());
    dst.push();
    ++counters_.decoded;
  }
}

const TraceRecord* TraceSource::fetch(StreamKind kind, std::uint32_t unit,
                                      double t) {
  Stream& s = stream(kind, unit);
  pump(s, t);
  const double tol = config_.skew_tol_s;
  // Records strictly behind the query were never consumed by a read: in a
  // faithful replay that cannot happen, so strict mode reports skew. Relaxed
  // mode passes over them (keeping the newest as the held value).
  while (s.size > 0 && s.front().t < t - tol) {
    if (config_.strict) {
      throw TraceError(TraceError::Code::kTimestampSkew,
                       "strict replay: query for " + at(kind, unit, t) +
                           " skips recorded read at t=" +
                           std::to_string(s.front().t));
    }
    ++counters_.skipped;
    if (s.front().present) {
      std::swap(s.current, s.front());
      s.have_current = true;
    }
    s.pop();
  }
  if (s.size > 0 && s.front().t <= t + tol) {
    TraceRecord& rec = s.front();
    s.pop();  // the slot stays intact until the next decode into it
    // A recorded absence is an answer too: the read was dropped when the
    // trace was made, so the replayed read is dropped identically.
    if (!rec.present) {
      ++counters_.absent;
      return nullptr;
    }
    std::swap(s.current, rec);
    s.have_current = true;
    ++counters_.served;
    return &s.current;
  }
  // Miss: no recorded read aligns with this query.
  if (config_.strict) {
    throw TraceError(TraceError::Code::kTimestampSkew,
                     "strict replay: no recorded read matches query for " +
                         at(kind, unit, t) + " (tolerance " +
                         std::to_string(tol) + " s)");
  }
  if (s.have_current && config_.max_age_s > 0.0 &&
      t - s.current.t <= config_.max_age_s) {
    ++counters_.held;
    return &s.current;
  }
  ++counters_.missing;
  return nullptr;
}

std::optional<double> TraceSource::fetch_scalar(StreamKind kind,
                                                std::uint32_t unit, double t) {
  if (!has(kind)) return std::nullopt;
  const TraceRecord* rec = fetch(kind, unit, t);
  if (!rec) return std::nullopt;
  return rec->scalar;
}

bool TraceSource::fetch_csi(StreamKind kind, std::uint32_t unit, double t,
                            CsiMatrix& out) {
  if (!has(kind)) return false;
  const TraceRecord* rec = fetch(kind, unit, t);
  if (!rec) return false;
  out = rec->csi;
  return true;
}

bool TraceSource::csi(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kCsi, unit, t, out);
}

bool TraceSource::csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kCsiFeedback, unit, t, out);
}

bool TraceSource::csi_true(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kTrueCsi, unit, t, out);
}

std::optional<double> TraceSource::rssi_dbm(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kRssi, unit, t);
}

std::optional<double> TraceSource::scan_rssi_dbm(std::uint32_t unit,
                                                 double t) {
  return fetch_scalar(StreamKind::kScanRssi, unit, t);
}

std::optional<double> TraceSource::tof_cycles(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kTof, unit, t);
}

std::optional<double> TraceSource::snr_db(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kSnr, unit, t);
}

std::optional<double> TraceSource::true_distance(std::uint32_t unit,
                                                 double t) {
  return fetch_scalar(StreamKind::kTrueDistance, unit, t);
}

bool TraceSource::feedback_delivered(std::uint32_t unit, double t) {
  if (!has(StreamKind::kFeedbackOk)) return true;
  const TraceRecord* rec = fetch(StreamKind::kFeedbackOk, unit, t);
  return rec == nullptr || rec->scalar != 0.0;
}

}  // namespace mobiwlan::trace
