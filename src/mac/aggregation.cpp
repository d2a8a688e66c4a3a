#include "mac/aggregation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"
#include "util/units.hpp"

namespace mobiwlan {

double aggregation_limit_s(const AggregationPolicy& policy,
                           std::optional<MobilityMode> mode) {
  if (policy.adaptive && mode) return mobility_params(*mode).aggregation_limit_s;
  return policy.fixed_limit_s;
}

double AmpduPlan::mpdu_age_fraction(int i) const {
  if (n_mpdus <= 0) return 0.0;
  return (static_cast<double>(i) + 0.5) / static_cast<double>(n_mpdus);
}

void ampdu_mpdu_errors(const McsEntry& mcs_entry, double snr_db,
                       double decorr_end, int n_mpdus, int payload_bytes,
                       const ErrorModelConfig& config, MpduErrors& out) {
  if (n_mpdus < 1 || n_mpdus > kMaxAmpduMpdus)
    throw std::out_of_range("ampdu_mpdu_errors: n_mpdus " +
                            std::to_string(n_mpdus) + " outside [1, " +
                            std::to_string(kMaxAmpduMpdus) + "]");
  const ErrorChain chain(mcs_entry, payload_bytes, config);
  const double inv_snr = 1.0 / db_to_linear(snr_db);
  if (decorr_end <= 0.0) {
    // Every MPDU's aging decorr_end * fraction is <= 0 (or -0.0), which
    // aged_snr_db clamps to the same fresh SINR: one price for the frame.
    const double ber = chain.ber(aged_snr_db_from_inverse(inv_snr, 0.0));
    std::fill_n(out.ber.begin(), n_mpdus, ber);
    std::fill_n(out.per.begin(), n_mpdus, chain.per(ber));
    return;
  }
  const AmpduPlan plan{n_mpdus, 0.0};
  for (int i = 0; i < n_mpdus; ++i) {
    const auto k = static_cast<std::size_t>(i);
    out.ber[k] = chain.ber(aged_snr_db_from_inverse(
        inv_snr, decorr_end * plan.mpdu_age_fraction(i)));
    out.per[k] = chain.per(out.ber[k]);
  }
}

AmpduPlan plan_ampdu(const McsEntry& mcs_entry, double limit_s,
                     int mpdu_payload_bytes, const AirtimeConfig& airtime) {
  AmpduPlan plan;
  plan.n_mpdus = mpdus_within_time(mcs_entry, limit_s, mpdu_payload_bytes, airtime);
  plan.frame_airtime_s =
      ampdu_airtime_s(mcs_entry, plan.n_mpdus, mpdu_payload_bytes, airtime);
  return plan;
}

}  // namespace mobiwlan
