#include "mac/aggregation.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include <sys/mman.h>

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

namespace {

void require_mpdu_count(const char* kernel, int n_mpdus) {
  if (n_mpdus < 1 || n_mpdus > kMaxAmpduMpdus)
    throw std::out_of_range(std::string(kernel) + ": n_mpdus " +
                            std::to_string(n_mpdus) + " outside [1, " +
                            std::to_string(kMaxAmpduMpdus) + "]");
}

std::uint64_t mpdu_bit(int i) { return std::uint64_t{1} << i; }

/// The SNR -> BER -> PER chain of one frame, with its per-frame invariants
/// (1/snr, the ErrorChain constants) computed once. Both loss kernels price
/// MPDU i through it, so their prices are the same bits.
class FramePricer {
 public:
  FramePricer(const McsEntry& mcs_entry, double snr_db, double decorr_end,
              int n_mpdus, int payload_bytes, const ErrorModelConfig& config)
      : chain_(mcs_entry, payload_bytes, config),
        inv_snr_(1.0 / db_to_linear(snr_db)),
        decorr_end_(decorr_end),
        plan_{n_mpdus, 0.0} {}

  /// Every MPDU's aging decorr_end * fraction is <= 0 (or -0.0), which
  /// aged_snr_db clamps to the same fresh SINR: one price for the frame.
  bool flat() const { return decorr_end_ <= 0.0; }

  double ber(int i) const {
    const double d = flat() ? 0.0 : decorr_end_ * plan_.mpdu_age_fraction(i);
    return chain_.ber(aged_snr_db_from_inverse(inv_snr_, d));
  }
  double per_of_ber(double ber) const { return chain_.per(ber); }
  double per(int i) const { return chain_.per(ber(i)); }

 private:
  ErrorChain chain_;
  double inv_snr_;
  double decorr_end_;
  AmpduPlan plan_;
};

/// Decides MPDUs [first, last] of an aged frame, all of which lie strictly
/// between two exactly priced MPDUs with PERs per_lo (below) and per_hi
/// (above), and ORs the lost ones into `lost`. PER is non-decreasing in i
/// within ampdu_bracket_margin, so u < per_lo - margin means lost and
/// u >= per_hi + margin means delivered; the rest are split at the middle
/// undecided MPDU, which is priced exactly.
void decide_span(const FramePricer& pricer, const double* u, int first,
                 int last, double per_lo, double per_hi, std::uint64_t& lost) {
  const double lost_below = per_lo - ampdu_bracket_margin(per_lo);
  const double kept_from = per_hi + ampdu_bracket_margin(per_hi);
  int lo = last + 1, hi = first - 1;  // extent of the undecided MPDUs
  for (int i = first; i <= last; ++i) {
    if (u[i] < lost_below) {
      lost |= mpdu_bit(i);
    } else if (!(u[i] >= kept_from)) {
      lo = std::min(lo, i);
      hi = i;
    }
  }
  if (lo > hi) return;
  const int mid = lo + (hi - lo) / 2;
  const double per_mid = pricer.per(mid);
  if (u[mid] < per_mid) lost |= mpdu_bit(mid);
  decide_span(pricer, u, lo, mid - 1, per_lo, per_mid, lost);
  decide_span(pricer, u, mid + 1, hi, per_mid, per_hi, lost);
}

}  // namespace

void ampdu_mpdu_errors(const McsEntry& mcs_entry, double snr_db,
                       double decorr_end, int n_mpdus, int payload_bytes,
                       const ErrorModelConfig& config, MpduErrors& out) {
  require_mpdu_count("ampdu_mpdu_errors", n_mpdus);
  const FramePricer pricer(mcs_entry, snr_db, decorr_end, n_mpdus,
                           payload_bytes, config);
  const int n_priced = pricer.flat() ? 1 : n_mpdus;
  for (int i = 0; i < n_priced; ++i) {
    const auto k = static_cast<std::size_t>(i);
    out.ber[k] = pricer.ber(i);
    out.per[k] = pricer.per_of_ber(out.ber[k]);
  }
  std::fill_n(out.ber.begin() + n_priced, n_mpdus - n_priced, out.ber[0]);
  std::fill_n(out.per.begin() + n_priced, n_mpdus - n_priced, out.per[0]);
}

std::uint64_t ampdu_mpdu_losses(const McsEntry& mcs_entry, double snr_db,
                                double decorr_end, int n_mpdus,
                                int payload_bytes,
                                const ErrorModelConfig& config, Rng& rng,
                                MpduErrors* priced) {
  static_assert(kMaxAmpduMpdus <= 64, "the loss mask holds one bit per MPDU");
  require_mpdu_count("ampdu_mpdu_losses", n_mpdus);
  std::uint64_t lost = 0;
  if (priced) {
    ampdu_mpdu_errors(mcs_entry, snr_db, decorr_end, n_mpdus, payload_bytes,
                      config, *priced);
    for (int i = 0; i < n_mpdus; ++i)
      if (rng.chance(priced->per[static_cast<std::size_t>(i)]))
        lost |= mpdu_bit(i);
    return lost;
  }
  const FramePricer pricer(mcs_entry, snr_db, decorr_end, n_mpdus,
                           payload_bytes, config);
  if (pricer.flat()) {
    const double per = pricer.per(0);
    for (int i = 0; i < n_mpdus; ++i)
      if (rng.chance(per)) lost |= mpdu_bit(i);
    return lost;
  }
  // The callers draw a frame's n uniforms back to back, so drawing them all
  // before pricing leaves the stream unchanged.
  std::array<double, kMaxAmpduMpdus> u;
  for (int i = 0; i < n_mpdus; ++i)
    u[static_cast<std::size_t>(i)] = rng.uniform();
  const double per_first = pricer.per(0);
  if (u[0] < per_first) lost |= mpdu_bit(0);
  if (n_mpdus == 1) return lost;
  const int last = n_mpdus - 1;
  const double per_last = pricer.per(last);
  if (u[static_cast<std::size_t>(last)] < per_last) lost |= mpdu_bit(last);
  decide_span(pricer, u.data(), 1, last - 1, per_first, per_last, lost);
  return lost;
}

void PerGrid::Unmap::operator()(double* per) const {
  munmap(per, kBytes);
}

PerGrid::PerGrid(int payload_bytes) : payload_bytes_(payload_bytes) {
  if (payload_bytes < 1)
    throw std::invalid_argument("PerGrid: payload_bytes " +
                                std::to_string(payload_bytes) +
                                " must be >= 1");
  assert(mcs_count() == kRows);
  void* per = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (per == MAP_FAILED) throw std::bad_alloc();
  per_.reset(static_cast<double*>(per));
}

const double* PerGrid::row(const McsEntry& entry) const {
  if (entry.index < 0 || entry.index >= kRows)
    throw std::out_of_range("PerGrid: MCS index " +
                            std::to_string(entry.index) + " outside the table");
  const auto r = static_cast<std::size_t>(entry.index);
  double* values = per_.get() + r * kPoints;
  RowState& state = state_[r];
  if (!state.built.load()) {
    std::call_once(state.once, [&] {
      const ErrorChain chain(mcs(entry.index), payload_bytes_);
      for (int k = 0; k < kPoints; ++k)
        values[k] = chain.per(chain.ber(grid_db(k)));
      state.built.store(true);
    });
  }
  return values;
}

int PerGrid::rows_built() const {
  int n = 0;
  for (const RowState& state : state_) n += state.built.load();
  return n;
}

int PerGrid::losses(const McsEntry& entry, double snr_db, int n,
                    Rng& rng) const {
  // The price lies in [floor_per, ceil_per]: the PERs at the upper and
  // lower SNR end of snr_db's cell. A NaN bracket (a NaN SNR) decides
  // nothing.
  double floor_per = std::numeric_limits<double>::quiet_NaN();
  double ceil_per = floor_per;
  if (snr_db >= kHiDb) {
    floor_per = 0.0;
    ceil_per = row(entry)[kPoints - 1];
  } else if (snr_db >= kLoDb) {
    const double* values = row(entry);
    // snr_db - kLoDb rounds up onto g_k - kLoDb when snr_db is just below
    // g_k; stepping back once puts snr_db inside [g_k, g_k+1].
    auto k = static_cast<int>((snr_db - kLoDb) * kPointsPerDb);
    if (snr_db < grid_db(k)) --k;
    floor_per = values[k + 1];
    ceil_per = values[k];
  } else if (snr_db < kLoDb) {
    floor_per = row(entry)[0];
    ceil_per = 1.0;
  }
  const double lost_below = floor_per - ampdu_bracket_margin(floor_per);
  const double kept_from = ceil_per + ampdu_bracket_margin(ceil_per);
  double per = 0.0;
  bool priced = false;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < lost_below) {
      ++lost;
    } else if (!(u >= kept_from)) {
      if (!priced) {
        per = per_from_snr(entry, snr_db, payload_bytes_);
        priced = true;
      }
      if (u < per) ++lost;
    }
  }
  return lost;
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
