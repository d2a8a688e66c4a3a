// CsiTrace now persists through the v2 MWTR format (trace/format.hpp): an
// entry becomes one kCsi record plus its four scalar records at the same
// timestamp. The in-memory API is unchanged; load() raises typed TraceError
// (still a std::runtime_error) instead of silently truncating, and legacy v1
// "CSIT" files are rejected with a re-record message.
#include "chan/csi_trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chan/channel_batch.hpp"
#include "trace/trace_io.hpp"

namespace mobiwlan {

namespace {

using trace::StreamKind;
using trace::TraceError;

constexpr std::uint32_t kScalarMask =
    trace::stream_bit(StreamKind::kSnr) | trace::stream_bit(StreamKind::kRssi) |
    trace::stream_bit(StreamKind::kTof) |
    trace::stream_bit(StreamKind::kTrueDistance);

// Scalars of one entry, written after its kCsi record in this fixed order.
constexpr StreamKind kScalarOrder[] = {
    StreamKind::kSnr, StreamKind::kRssi, StreamKind::kTof,
    StreamKind::kTrueDistance};

double scalar_of(const TraceEntry& e, StreamKind k) {
  switch (k) {
    case StreamKind::kSnr: return e.snr_db;
    case StreamKind::kRssi: return e.rssi_dbm;
    case StreamKind::kTof: return e.tof_cycles;
    default: return e.true_distance_m;
  }
}

double& scalar_slot(TraceEntry& e, StreamKind k) {
  switch (k) {
    case StreamKind::kSnr: return e.snr_db;
    case StreamKind::kRssi: return e.rssi_dbm;
    case StreamKind::kTof: return e.tof_cycles;
    default: return e.true_distance_m;
  }
}

}  // namespace

void CsiTrace::add(TraceEntry entry) { entries_.push_back(std::move(entry)); }

double CsiTrace::duration() const {
  if (entries_.empty()) return 0.0;
  return entries_.back().t - entries_.front().t;
}

std::size_t CsiTrace::index_at(double t) const {
  if (entries_.empty()) throw std::out_of_range("empty trace");
  // First entry with time > t, then step back.
  auto it = std::upper_bound(entries_.begin(), entries_.end(), t,
                             [](double v, const TraceEntry& e) { return v < e.t; });
  if (it == entries_.begin()) return 0;
  return static_cast<std::size_t>(it - entries_.begin()) - 1;
}

const TraceEntry& CsiTrace::at_time(double t) const { return entries_[index_at(t)]; }

CsiTrace CsiTrace::record(WirelessChannel& channel, double duration_s,
                          double period_s) {
  CsiTrace trace;
  ChannelBatch::Scratch scratch;
  ChannelSample s;
  for (double t = 0.0; t <= duration_s; t += period_s) {
    ChannelBatch::sample_link(channel, t, s, scratch);
    trace.add(TraceEntry{s.t, s.csi, s.snr_db, s.rssi_dbm, s.tof_cycles,
                         s.true_distance_m});
  }
  return trace;
}

bool CsiTrace::save(const std::string& path) const {
  try {
    trace::TraceHeader h;
    h.n_units = 1;
    // An empty trace declares only scalar streams: matrix kinds with zero
    // geometry are a header error, and there is nothing to write anyway.
    h.stream_mask = kScalarMask;
    if (!entries_.empty()) {
      const CsiMatrix& c = entries_.front().csi;
      h.stream_mask |= trace::stream_bit(StreamKind::kCsi);
      h.n_tx = static_cast<std::uint32_t>(c.n_tx());
      h.n_rx = static_cast<std::uint32_t>(c.n_rx());
      h.n_sc = static_cast<std::uint32_t>(c.n_subcarriers());
    }
    if (entries_.size() >= 2) {
      h.nominal_period_s = entries_[1].t - entries_[0].t;
    }
    trace::TraceWriter writer(path, h);
    for (const auto& e : entries_) {
      writer.put_csi(StreamKind::kCsi, 0, e.t, e.csi);
      for (StreamKind k : kScalarOrder) {
        writer.put_scalar(k, 0, e.t, scalar_of(e, k));
      }
    }
    writer.close();
    return true;
  } catch (const TraceError&) {
    return false;
  }
}

CsiTrace CsiTrace::load(const std::string& path) {
  trace::TraceReader reader(path);
  const trace::TraceHeader& h = reader.header();
  if ((h.stream_mask & kScalarMask) != kScalarMask || h.n_units != 1) {
    throw TraceError(TraceError::Code::kMissingStream,
                     "not a CsiTrace recording (needs snr/rssi/tof/"
                     "true_distance streams on one unit): " + path);
  }

  CsiTrace trace;
  trace::TraceRecord rec;
  std::size_t next_scalar = 0;  // index into kScalarOrder for the open entry
  bool open = false;
  while (reader.next(rec)) {
    if (rec.kind == StreamKind::kCsi) {
      if (open && next_scalar != std::size(kScalarOrder)) {
        throw TraceError(TraceError::Code::kCorruptRecord,
                         "CsiTrace entry missing scalar readings: " + path);
      }
      TraceEntry e;
      e.t = rec.t;
      e.csi = rec.csi;
      trace.add(std::move(e));
      open = true;
      next_scalar = 0;
      continue;
    }
    if (!open || next_scalar >= std::size(kScalarOrder) ||
        rec.kind != kScalarOrder[next_scalar] ||
        rec.t != trace.entries_.back().t) {
      throw TraceError(TraceError::Code::kCorruptRecord,
                       "unexpected record order for a CsiTrace recording: " +
                           path);
    }
    scalar_slot(trace.entries_.back(), rec.kind) = rec.scalar;
    ++next_scalar;
  }
  if (open && next_scalar != std::size(kScalarOrder)) {
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "CsiTrace entry missing scalar readings: " + path);
  }
  return trace;
}

}  // namespace mobiwlan
