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
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// Slack of the bracket rules around a PER p. The exact per[i] of an aged
/// frame is non-decreasing in i, and a price lies between the grid PERs at
/// its SNR cell's ends, each up to libm rounding (~1e-13 relative, 2^-52
/// absolute where 1 - exp(x) cancels); the margin is over 1000x that.
constexpr double ampdu_bracket_margin(double per) {
  return 0x1p-40 + 0x1p-30 * per;
}

/// The decision bounds of one SNR's PER bracket: a draw u is lost if
/// u < lost_below, delivered if u >= kept_from, and otherwise undecided
/// until it is compared with the exact price. The margins of
/// ampdu_bracket_margin are already applied; a NaN bracket decides nothing.
struct PerBracket {
  double lost_below;
  double kept_from;
};

/// The PER of one payload size under one error model, tabulated per MCS at
/// a fixed 1/32 dB grid over [kLoDb, kHiDb], and the loss draws decided
/// against it. Storage for every row is mapped once, at construction, and
/// left unfilled; a row is built on its first use (std::call_once), so rows
/// no caller reaches cost nothing and no use after construction allocates.
/// Shared read-only by any number of threads.
class PerGrid {
 public:
  static constexpr double kLoDb = -20.0;
  static constexpr double kHiDb = 60.0;
  static constexpr int kPointsPerDb = 32;
  static constexpr int kPoints =
      static_cast<int>((kHiDb - kLoDb) * kPointsPerDb) + 1;

  /// Throws std::invalid_argument for payload_bytes < 1.
  explicit PerGrid(int payload_bytes, const ErrorModelConfig& config = {});
  PerGrid(const PerGrid&) = delete;
  PerGrid& operator=(const PerGrid&) = delete;

  /// The process-lifetime grid of (payload_bytes, config): the first lookup
  /// of a key makes its grid, every later one returns that same object, and
  /// no grid is ever freed, so its rows are built once per process however
  /// many runs use it. Configs are keyed by their bits. Lookups take one
  /// registry mutex, safe from any thread; only a key's first lookup
  /// allocates. Throws std::invalid_argument for payload_bytes < 1.
  static const PerGrid& shared(int payload_bytes,
                               const ErrorModelConfig& config);

  int payload_bytes() const { return payload_bytes_; }
  const ErrorModelConfig& config() const { return config_; }

  /// The SNR of grid point k in [0, kPoints), exactly.
  static constexpr double grid_db(int k) {
    return kLoDb + static_cast<double>(k) * (1.0 / kPointsPerDb);
  }

  /// per_from_snr(entry, grid_db(k), payload_bytes(), config()), bitwise.
  /// Builds entry's row on first use.
  double per_at(const McsEntry& entry, int k) const {
    return row(entry)[k];
  }

  /// Rows built so far.
  int rows_built() const;

  /// The bracket of the price at `snr_db` (a link SNR, dB):
  /// per_from_snr(entry, snr_db, payload_bytes(), config()) lies in the
  /// SNR's cell [g_k, g_k+1] between per(g_k+1) and per(g_k), since PER
  /// does not increase with SNR, up to libm rounding far inside
  /// ampdu_bracket_margin. Below the grid the cell is [per(g_0), 1], above
  /// it [0, per(g_last)]; a NaN SNR gives a NaN bracket and builds no row.
  /// `entry` must be a row of mcs_table().
  PerBracket bracket(const McsEntry& entry, double snr_db) const;

  /// The losses among n MPDUs sent at `entry` and `snr_db`: exactly the
  /// count of rng.chance(per_from_snr(entry, snr_db, payload_bytes(),
  /// config())) over n draws, leaving rng where that loop does. Each draw
  /// is decided by bracket(entry, snr_db), and the exact price is computed
  /// at most once per call, only for a draw inside the bracket.
  int losses(const McsEntry& entry, double snr_db, int n, Rng& rng) const;

 private:
  static constexpr int kRows = 16;  ///< MCS 0-15, one row each
  static constexpr std::size_t kBytes =
      sizeof(double) * kRows * static_cast<std::size_t>(kPoints);

  struct RowState {
    std::once_flag once;
    std::atomic<bool> built{false};
  };
  struct Unmap {
    void operator()(double* per) const;
  };

  const double* row(const McsEntry& entry) const;

  int payload_bytes_;
  ErrorModelConfig config_;
  // An anonymous mapping rather than a heap block: its pages stay unbacked
  // until a row is built, and it leaves the heap's layout alone (a heap
  // block of this size, freed with every campus run, grew peak RSS over
  // repeated campus runs by 0.4-2.2 %).
  std::unique_ptr<double[], Unmap> per_;  ///< kRows x kPoints, row-major
  mutable std::array<RowState, kRows> state_;
};

/// The A-MPDU loss draw: decides which MPDUs of a frame are lost, under the
/// grid's payload size and error model. Bit i of the result is set iff
/// MPDU i was lost, and the draws are exactly those of rng.chance(per[i])
/// for i = 0..n_mpdus-1 over ampdu_mpdu_errors' per: one rng.uniform() per
/// MPDU, in MPDU order, each compared with its PER.
///
/// Each decided MPDU i is bracketed by the grid cell of its aged SINR
/// aged_snr_db_from_inverse(1/snr, decorr_end * mpdu_age_fraction(i)), the
/// SINR its exact price runs through, and priced exactly only when its
/// uniform falls inside that bracket. A flat frame (decorr_end <= 0) has
/// one SINR: one bracket, and at most one exact price. An aged frame draws
/// its n uniforms first and decides MPDUs 0 and n-1 by their brackets;
/// since per[i] is non-decreasing in i within ampdu_bracket_margin, an
/// MPDU i between two decided MPDUs a < i < b is lost if u_i is below a's
/// lost_below and delivered if u_i reaches b's kept_from. The undecided
/// span is split at its middle MPDU, which is decided by its own bracket,
/// until every MPDU is decided. A NaN SINR decides nothing, so a NaN frame
/// ends up priced exactly. With `priced`, every MPDU is priced into it
/// through ampdu_mpdu_errors first (the SoftPHY path, which sums every BER)
/// and the draws compare against those prices. Requires
/// 1 <= n_mpdus <= kMaxAmpduMpdus; never allocates once the grid rows it
/// reaches are built (building one does not allocate either).
std::uint64_t ampdu_mpdu_losses(const McsEntry& mcs_entry, double snr_db,
                                double decorr_end, int n_mpdus,
                                const PerGrid& grid, Rng& rng,
                                MpduErrors* priced = nullptr);

/// Plan an A-MPDU at the given MCS under an aggregation-time limit.
AmpduPlan plan_ampdu(const McsEntry& mcs_entry, double limit_s,
                     int mpdu_payload_bytes, const AirtimeConfig& airtime = {});

}  // namespace mobiwlan
