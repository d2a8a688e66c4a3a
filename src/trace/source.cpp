#include "trace/source.hpp"

#include <string>

namespace mobiwlan::trace {

std::optional<std::size_t> ObservableSource::strongest_unit(double t) {
  std::optional<std::size_t> best;
  double best_rssi = 0.0;
  const std::size_t n = n_units();
  for (std::size_t u = 0; u < n; ++u) {
    const auto rssi = scan_rssi_dbm(static_cast<std::uint32_t>(u), t);
    if (!rssi) continue;
    if (!best || *rssi > best_rssi) {
      best = u;
      best_rssi = *rssi;
    }
  }
  return best;
}

void ObservableSource::require(std::initializer_list<StreamKind> kinds,
                               const char* consumer) const {
  std::string missing;
  for (StreamKind k : kinds) {
    if (has(k)) continue;
    if (!missing.empty()) missing += ", ";
    missing += to_string(k);
  }
  if (missing.empty()) return;
  throw TraceError(TraceError::Code::kMissingStream,
                   std::string(consumer) +
                       " requires observable stream(s) this source lacks: " +
                       missing);
}

void throw_missing_ground(const char* loop, const char* kind,
                          const char* what) {
  throw TraceError(TraceError::Code::kMissingStream,
                   std::string(loop) + ": ground-truth " + kind +
                       " unavailable from source: " + what);
}

bool RecordingSource::csi(std::uint32_t unit, double t, CsiMatrix& out) {
  if (!inner_.csi(unit, t, out)) {
    writer_.put_absent(StreamKind::kCsi, unit, t);
    return false;
  }
  writer_.put_csi(StreamKind::kCsi, unit, t, out);
  return true;
}

bool RecordingSource::csi_feedback(std::uint32_t unit, double t,
                                   CsiMatrix& out) {
  if (!inner_.csi_feedback(unit, t, out)) {
    writer_.put_absent(StreamKind::kCsiFeedback, unit, t);
    return false;
  }
  writer_.put_csi(StreamKind::kCsiFeedback, unit, t, out);
  return true;
}

bool RecordingSource::csi_true(std::uint32_t unit, double t, CsiMatrix& out) {
  if (!inner_.csi_true(unit, t, out)) {
    writer_.put_absent(StreamKind::kTrueCsi, unit, t);
    return false;
  }
  writer_.put_csi(StreamKind::kTrueCsi, unit, t, out);
  return true;
}

std::optional<double> RecordingSource::log_scalar(StreamKind kind,
                                                  std::uint32_t unit, double t,
                                                  std::optional<double> v) {
  if (v)
    writer_.put_scalar(kind, unit, t, *v);
  else
    writer_.put_absent(kind, unit, t);
  return v;
}

bool RecordingSource::feedback_delivered(std::uint32_t unit, double t) {
  const bool ok = inner_.feedback_delivered(unit, t);
  writer_.put_scalar(StreamKind::kFeedbackOk, unit, t, ok ? 1.0 : 0.0);
  return ok;
}

std::optional<double> RecordingSource::rssi_dbm(std::uint32_t unit, double t) {
  return log_scalar(StreamKind::kRssi, unit, t, inner_.rssi_dbm(unit, t));
}

std::optional<double> RecordingSource::scan_rssi_dbm(std::uint32_t unit,
                                                     double t) {
  return log_scalar(StreamKind::kScanRssi, unit, t,
                    inner_.scan_rssi_dbm(unit, t));
}

std::optional<double> RecordingSource::tof_cycles(std::uint32_t unit,
                                                  double t) {
  return log_scalar(StreamKind::kTof, unit, t, inner_.tof_cycles(unit, t));
}

std::optional<double> RecordingSource::snr_db(std::uint32_t unit, double t) {
  return log_scalar(StreamKind::kSnr, unit, t, inner_.snr_db(unit, t));
}

std::optional<double> RecordingSource::true_distance(std::uint32_t unit,
                                                     double t) {
  return log_scalar(StreamKind::kTrueDistance, unit, t,
                    inner_.true_distance(unit, t));
}

TraceHeader RecordingSource::header_for(const ObservableSource& src,
                                        const ChannelConfig& config) {
  TraceHeader h;
  h.n_units = static_cast<std::uint32_t>(src.n_units());
  h.n_tx = static_cast<std::uint32_t>(config.n_tx);
  h.n_rx = static_cast<std::uint32_t>(config.n_rx);
  h.n_sc = static_cast<std::uint32_t>(config.n_subcarriers);
  h.carrier_hz = config.carrier_hz;
  h.nominal_period_s = 0.0;  // stream-of-reads: query times are irregular
  for (std::size_t k = 0; k < kNumStreamKinds; ++k) {
    const auto kind = static_cast<StreamKind>(k);
    if (src.has(kind)) h.stream_mask |= stream_bit(kind);
  }
  return h;
}

FaultedSource::FaultedSource(ObservableSource& inner, const FaultPlan& plan)
    : inner_(inner), plan_(plan) {
  const std::size_t n = inner.n_units();
  csi_fault_.reserve(n);
  tof_fault_.reserve(n);
  rssi_fault_.reserve(n);
  feedback_fault_.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    csi_fault_.push_back(make_stream(plan, FaultStreamKind::kCsi, u));
    tof_fault_.push_back(make_stream(plan, FaultStreamKind::kTof, u));
    rssi_fault_.push_back(make_stream(plan, FaultStreamKind::kRssi, u));
    feedback_fault_.push_back(make_stream(plan, FaultStreamKind::kFeedback, u));
  }
}

bool FaultedSource::csi(std::uint32_t unit, double t, CsiMatrix& out) {
  if (plan_.rssi_only) return false;
  if (!csi_fault_[unit].deliver(t)) return false;
  return inner_.csi(unit, csi_fault_[unit].measured_t(t), out);
}

std::optional<double> FaultedSource::rssi_dbm(std::uint32_t unit, double t) {
  if (!rssi_fault_[unit].deliver(t)) return std::nullopt;
  return inner_.rssi_dbm(unit, rssi_fault_[unit].measured_t(t));
}

std::optional<double> FaultedSource::tof_cycles(std::uint32_t unit, double t) {
  if (plan_.rssi_only) return std::nullopt;
  if (!tof_fault_[unit].deliver(t)) return std::nullopt;
  return inner_.tof_cycles(unit, tof_fault_[unit].measured_t(t));
}

bool FaultedSource::feedback_delivered(std::uint32_t unit, double t) {
  if (plan_.rssi_only) return false;
  if (!feedback_fault_[unit].deliver(t)) return false;
  return inner_.feedback_delivered(unit, t);
}

}  // namespace mobiwlan::trace
