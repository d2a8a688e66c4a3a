// airtime.hpp — 802.11n medium-occupancy model.
//
// Converts MAC decisions (MCS, A-MPDU size) into on-air time, including PHY
// preambles, contention, SIFS, and the Block ACK — the denominators of every
// throughput number in the evaluation. Frame aggregation (§5) exists exactly
// because these per-frame overheads amortize over the aggregate.
#pragma once

#include "phy/mcs.hpp"

namespace mobiwlan {

/// Most MPDUs one A-MPDU carries: the Block ACK bitmap covers 64.
inline constexpr int kMaxAmpduMpdus = 64;

struct AirtimeConfig {
  double preamble_s = 36e-6;        ///< L-STF/L-LTF/L-SIG + HT-SIG + HT-STF
  double ht_ltf_per_stream_s = 4e-6;
  double block_ack_s = 68e-6;       ///< Block ACK at a basic rate, incl. preamble
  double ack_s = 44e-6;             ///< legacy ACK (single MPDU)
  double avg_backoff_slots = 7.5;   ///< mean of CW_min = 15
  double mpdu_header_bytes = 40.0;  ///< MAC header + A-MPDU delimiter + FCS
};

/// Time on air for an A-MPDU carrying `n_mpdus` subframes of
/// `mpdu_payload_bytes` each at the given MCS (data portion + preamble).
double ampdu_airtime_s(const McsEntry& mcs_entry, int n_mpdus,
                       int mpdu_payload_bytes, const AirtimeConfig& config = {});

/// Full exchange time: DIFS + backoff + A-MPDU + SIFS + Block ACK.
double exchange_airtime_s(const McsEntry& mcs_entry, int n_mpdus,
                          int mpdu_payload_bytes, const AirtimeConfig& config = {});

/// Number of MPDUs of `mpdu_payload_bytes` that fit within an aggregation
/// *time* limit at the given MCS (§5: "Aggregation size = Maximum allowed
/// aggregation time / Bit-rate"). Always at least 1, capped at
/// kMaxAmpduMpdus (Block ACK window).
int mpdus_within_time(const McsEntry& mcs_entry, double aggregation_time_s,
                      int mpdu_payload_bytes, const AirtimeConfig& config = {});

/// MAC goodput of a fully successful exchange, in Mbps.
double exchange_goodput_mbps(const McsEntry& mcs_entry, int n_mpdus,
                             int mpdu_payload_bytes, const AirtimeConfig& config = {});

}  // namespace mobiwlan
