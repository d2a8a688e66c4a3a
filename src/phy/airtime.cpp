#include "phy/airtime.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace mobiwlan {

double ampdu_airtime_s(const McsEntry& mcs_entry, int n_mpdus,
                       int mpdu_payload_bytes, const AirtimeConfig& config) {
  const double preamble =
      config.preamble_s + config.ht_ltf_per_stream_s * mcs_entry.streams;
  const double bits =
      8.0 * n_mpdus * (mpdu_payload_bytes + config.mpdu_header_bytes);
  return preamble + bits / (mcs_entry.rate_mbps * 1e6);
}

double exchange_airtime_s(const McsEntry& mcs_entry, int n_mpdus,
                          int mpdu_payload_bytes, const AirtimeConfig& config) {
  const double contention = kDifs + config.avg_backoff_slots * kSlotTime;
  const double ack = n_mpdus > 1 ? config.block_ack_s : config.ack_s;
  return contention + ampdu_airtime_s(mcs_entry, n_mpdus, mpdu_payload_bytes, config) +
         kSifs + ack;
}

int mpdus_within_time(const McsEntry& mcs_entry, double aggregation_time_s,
                      int mpdu_payload_bytes, const AirtimeConfig& config) {
  const double bits_budget = aggregation_time_s * mcs_entry.rate_mbps * 1e6;
  const double bits_per_mpdu = 8.0 * (mpdu_payload_bytes + config.mpdu_header_bytes);
  const int n = static_cast<int>(bits_budget / bits_per_mpdu);
  return std::clamp(n, 1, kMaxAmpduMpdus);
}

double exchange_goodput_mbps(const McsEntry& mcs_entry, int n_mpdus,
                             int mpdu_payload_bytes, const AirtimeConfig& config) {
  const double airtime = exchange_airtime_s(mcs_entry, n_mpdus, mpdu_payload_bytes, config);
  const double payload_bits = 8.0 * n_mpdus * mpdu_payload_bytes;
  return payload_bits / airtime / 1e6;
}

}  // namespace mobiwlan
