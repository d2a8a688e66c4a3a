// aggregation.hpp — A-MPDU frame aggregation policy (§5).
//
// 802.11n amortizes PHY and contention overheads by packing MPDUs into one
// frame, but the receiver equalizes using the channel estimate from the
// frame preamble only: the longer the frame, the staler the estimate for its
// tail MPDUs. The optimal maximum aggregation *time* therefore shrinks as
// mobility intensity grows (Fig. 10a). The adaptive policy picks the Table-2
// limit for the classified mobility mode; the stock driver uses a fixed 4 ms.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "core/mobility_mode.hpp"
#include "phy/airtime.hpp"
#include "phy/error_model.hpp"
#include "phy/mcs.hpp"
#include "util/rng.hpp"

namespace mobiwlan {

/// How the transmitter chooses its maximum aggregation time.
struct AggregationPolicy {
  bool adaptive = false;        ///< true: Table-2 limit per mobility mode
  double fixed_limit_s = 4e-3;  ///< stock statically-configured limit
};

/// The aggregation time limit this policy yields for a (possibly unknown)
/// mobility classification.
double aggregation_limit_s(const AggregationPolicy& policy,
                           std::optional<MobilityMode> mode);

/// A composed A-MPDU: how many MPDUs to send and when each sits on air
/// relative to the preamble-based channel estimate.
struct AmpduPlan {
  int n_mpdus = 1;
  double frame_airtime_s = 0.0;  ///< preamble + all MPDUs
  /// Midpoint transmission offset of MPDU i from the channel estimate,
  /// as a fraction of frame_airtime_s — the "age" driving equalizer
  /// mismatch for that subframe.
  double mpdu_age_fraction(int i) const;
};

/// Per-MPDU error rates of one A-MPDU; entries [0, n_mpdus) are valid.
struct MpduErrors {
  std::array<double, kMaxAmpduMpdus> per{};  ///< loss probability of MPDU i
  std::array<double, kMaxAmpduMpdus> ber{};  ///< coded BER of MPDU i (SoftPHY)
};

/// The exact A-MPDU prices: prices every MPDU of a frame sent at `snr_db`
/// whose channel decorrelated by `decorr_end` between the preamble estimate
/// and the frame end. MPDU i ages by decorr_end * mpdu_age_fraction(i), so
///   per[i] == per_with_aging(mcs_entry, snr_db, payload_bytes, that aging)
/// and ber[i] is the coded BER behind that PER, bitwise. Per-frame
/// invariants (1/snr, stream split, payload bits) are computed once, and a
/// flat frame (decorr_end <= 0: every MPDU's aging clamps to 0) is priced
/// once for all its MPDUs. The reference ampdu_mpdu_losses decides
/// against. Requires 1 <= n_mpdus <= kMaxAmpduMpdus; draws no randomness
/// and never allocates.
void ampdu_mpdu_errors(const McsEntry& mcs_entry, double snr_db,
                       double decorr_end, int n_mpdus, int payload_bytes,
                       const ErrorModelConfig& config, MpduErrors& out);

/// Slack of the bracket rule in ampdu_mpdu_losses around an exactly priced
/// PER p. The exact per[i] of an aged frame is non-decreasing in i up to
/// libm rounding (~1e-13 relative, 2^-52 absolute where 1 - exp(x)
/// cancels); the margin is over 1000x that.
constexpr double ampdu_bracket_margin(double per) {
  return 0x1p-40 + 0x1p-30 * per;
}

/// The A-MPDU loss draw: decides which MPDUs of a frame are lost. Bit i of
/// the result is set iff MPDU i was lost, and the draws are exactly those
/// of rng.chance(per[i]) for i = 0..n_mpdus-1 over ampdu_mpdu_errors' per:
/// one rng.uniform() per MPDU, in MPDU order, each compared with its PER.
///
/// A flat frame (decorr_end <= 0) is priced once. An aged frame draws its
/// n uniforms first, prices MPDUs 0 and n-1, and decides each MPDU i
/// between two priced MPDUs a < i < b by the bracket rule: lost if
/// u_i < per_a - margin(per_a), delivered if u_i >= per_b + margin(per_b).
/// The undecided span is split at its middle MPDU, which is priced
/// exactly, until every MPDU is decided. A NaN price decides nothing, so
/// a NaN frame ends up priced exactly. With `priced`, every MPDU is priced
/// into it through ampdu_mpdu_errors first (the SoftPHY path, which sums
/// every BER) and the draws compare against those prices. Requires
/// 1 <= n_mpdus <= kMaxAmpduMpdus; never allocates.
std::uint64_t ampdu_mpdu_losses(const McsEntry& mcs_entry, double snr_db,
                                double decorr_end, int n_mpdus,
                                int payload_bytes,
                                const ErrorModelConfig& config, Rng& rng,
                                MpduErrors* priced = nullptr);

/// Plan an A-MPDU at the given MCS under an aggregation-time limit.
AmpduPlan plan_ampdu(const McsEntry& mcs_entry, double limit_s,
                     int mpdu_payload_bytes, const AirtimeConfig& airtime = {});

}  // namespace mobiwlan
