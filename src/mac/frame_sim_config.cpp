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

}  // namespace mobiwlan
