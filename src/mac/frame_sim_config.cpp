#include "mac/frame_sim_config.hpp"

#include <cmath>

namespace mobiwlan {

void require_finite_positive(FrameSimConfigError::Code code, const char* who,
                             const char* field, double v) {
  if (!(std::isfinite(v) && v > 0.0))
    throw FrameSimConfigError(code, std::string(who) + ": " + field + " " +
                                        std::to_string(v) +
                                        " must be finite and > 0");
}

void validate_frame_sim_config(const char* who, double duration_s,
                               int mpdu_payload_bytes,
                               const MobilityClassifier::Config* classifier) {
  require_finite_positive(FrameSimConfigError::Code::kBadDuration, who,
                          "duration_s", duration_s);
  if (mpdu_payload_bytes < 0)
    throw FrameSimConfigError(FrameSimConfigError::Code::kBadPayload,
                              std::string(who) + ": mpdu_payload_bytes " +
                                  std::to_string(mpdu_payload_bytes) +
                                  " must be >= 0");
  if (classifier == nullptr) return;
  require_finite_positive(FrameSimConfigError::Code::kBadCsiPeriod, who,
                          "classifier.csi_period_s", classifier->csi_period_s);
  require_finite_positive(FrameSimConfigError::Code::kBadTofPeriod, who,
                          "classifier.tof_period_s", classifier->tof_period_s);
}

void require_loss_payload(const char* who, int mpdu_payload_bytes) {
  if (mpdu_payload_bytes < 1)
    throw FrameSimConfigError(FrameSimConfigError::Code::kBadPayload,
                              std::string(who) + ": mpdu_payload_bytes " +
                                  std::to_string(mpdu_payload_bytes) +
                                  " must be >= 1");
}

void validate_link_disturbances(const char* who, double burst_rate_hz,
                                double burst_min_s, double burst_max_s,
                                double tcp_stall_s) {
  using Code = FrameSimConfigError::Code;
  if (!(std::isfinite(burst_rate_hz) && burst_rate_hz >= 0.0))
    throw FrameSimConfigError(Code::kBadInterference,
                              std::string(who) +
                                  ": interference_burst_rate_hz " +
                                  std::to_string(burst_rate_hz) +
                                  " must be finite and >= 0");
  if (burst_rate_hz > 0.0 &&
      !(std::isfinite(burst_min_s) && std::isfinite(burst_max_s) &&
        0.0 <= burst_min_s && burst_min_s <= burst_max_s))
    throw FrameSimConfigError(
        Code::kBadInterference,
        std::string(who) + ": interference burst bounds [" +
            std::to_string(burst_min_s) + ", " + std::to_string(burst_max_s) +
            "] s must be finite with 0 <= min <= max");
  if (!(std::isfinite(tcp_stall_s) && tcp_stall_s >= 0.0))
    throw FrameSimConfigError(Code::kBadTcpStall,
                              std::string(who) + ": tcp_stall_s " +
                                  std::to_string(tcp_stall_s) +
                                  " must be finite and >= 0");
}

}  // namespace mobiwlan
