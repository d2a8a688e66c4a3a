#include "fault/fault.hpp"

namespace mobiwlan {

FaultStream::FaultStream(const StreamFault& fault, Rng drop_rng, Rng burst_rng)
    : fault_(fault),
      drops_active_(fault.drop_prob > 0.0 || fault.burst_rate_hz > 0.0),
      drop_rng_(drop_rng),
      burst_rng_(burst_rng),
      bursts_active_(fault.burst_rate_hz > 0.0) {
  if (bursts_active_) {
    // First burst after an exponential gap from t = 0.
    burst_start_ = burst_rng_.exponential(1.0 / fault_.burst_rate_hz);
    burst_end_ =
        burst_start_ + burst_rng_.uniform(fault_.burst_min_s, fault_.burst_max_s);
  }
}

bool FaultStream::deliver(double t) {
  if (!drops_active_) return true;
  if (bursts_active_) {
    // Advance the burst process past t. Bursts are generated in order from
    // their own substream, so the schedule is a pure function of the seed.
    while (burst_end_ <= t) {
      burst_start_ = burst_end_ + burst_rng_.exponential(1.0 / fault_.burst_rate_hz);
      burst_end_ = burst_start_ +
                   burst_rng_.uniform(fault_.burst_min_s, fault_.burst_max_s);
    }
    if (t >= burst_start_) return false;  // inside an outage burst
  }
  if (fault_.drop_prob > 0.0 && drop_rng_.chance(fault_.drop_prob)) return false;
  return true;
}

namespace {

/// Substream id for (unit, kind): two streams (drop, burst) per kind,
/// four kinds per unit.
std::uint64_t stream_id(FaultStreamKind kind, std::uint64_t unit) {
  return unit * 8 + static_cast<std::uint64_t>(kind) * 2;
}

const StreamFault& stream_fault(const FaultPlan& plan, FaultStreamKind kind) {
  switch (kind) {
    case FaultStreamKind::kCsi: return plan.csi;
    case FaultStreamKind::kTof: return plan.tof;
    case FaultStreamKind::kRssi: return plan.rssi;
    case FaultStreamKind::kFeedback: return plan.feedback;
  }
  return plan.csi;  // unreachable
}

}  // namespace

FaultStream make_stream(const FaultPlan& plan, FaultStreamKind kind,
                        std::uint64_t unit) {
  const StreamFault& fault = stream_fault(plan, kind);
  if (!fault.any()) return FaultStream{};
  const Rng master(plan.seed);
  const std::uint64_t id = stream_id(kind, unit);
  return FaultStream(fault, master.stream(id), master.stream(id + 1));
}

DegradedObservables::DegradedObservables(WirelessChannel& channel,
                                         const FaultPlan& plan,
                                         std::uint64_t unit)
    : channel_(channel),
      plan_(plan),
      csi_(make_stream(plan, FaultStreamKind::kCsi, unit)),
      tof_(make_stream(plan, FaultStreamKind::kTof, unit)),
      rssi_(make_stream(plan, FaultStreamKind::kRssi, unit)),
      feedback_(make_stream(plan, FaultStreamKind::kFeedback, unit)) {}

std::optional<CsiMatrix> DegradedObservables::csi(double t) {
  if (plan_.rssi_only) return std::nullopt;
  if (!csi_.deliver(t)) return std::nullopt;
  CsiMatrix csi;
  ChannelBatch::csi_link(channel_, csi_.measured_t(t), csi, scratch_);
  return csi;
}

std::optional<double> DegradedObservables::tof_cycles(double t) {
  if (plan_.rssi_only) return std::nullopt;
  if (!tof_.deliver(t)) return std::nullopt;
  return channel_.tof_cycles(tof_.measured_t(t));
}

std::optional<double> DegradedObservables::rssi_dbm(double t) {
  if (!rssi_.deliver(t)) return std::nullopt;
  return ChannelBatch::rssi_link(channel_, rssi_.measured_t(t), scratch_);
}

bool DegradedObservables::feedback_delivered(double t) {
  if (plan_.rssi_only) return false;
  return feedback_.deliver(t);
}

}  // namespace mobiwlan
