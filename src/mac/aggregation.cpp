#include "mac/aggregation.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

  /// MPDU i's aged SINR (dB), the SNR its price runs through.
  double sinr_db(int i) const {
    const double d = flat() ? 0.0 : decorr_end_ * plan_.mpdu_age_fraction(i);
    return aged_snr_db_from_inverse(inv_snr_, d);
  }
  double ber(int i) const { return chain_.ber(sinr_db(i)); }
  double per_of_ber(double ber) const { return chain_.per(ber); }
  double per_at(double sinr_db) const {
    return chain_.per(chain_.ber(sinr_db));
  }

 private:
  ErrorChain chain_;
  double inv_snr_;
  double decorr_end_;
  AmpduPlan plan_;
};

/// Decides draw u against bracket b; `price()` is called only when u falls
/// inside it. A NaN bracket leaves every draw to the price.
template <class Price>
bool lost_by(const PerBracket& b, double u, Price&& price) {
  if (u < b.lost_below) return true;
  if (u >= b.kept_from) return false;
  return u < price();
}

/// Draws n uniforms in order, each decided against one bracket, and calls
/// on_lost(i) for each lost draw i. `price()` is called at most once, for
/// the first draw inside the bracket.
template <class Price, class OnLost>
void draw_against(const PerBracket& b, int n, Rng& rng, Price&& price,
                  OnLost&& on_lost) {
  double per = 0.0;
  bool priced = false;
  const auto once = [&] {
    if (!priced) {
      per = price();
      priced = true;
    }
    return per;
  };
  for (int i = 0; i < n; ++i)
    if (lost_by(b, rng.uniform(), once)) on_lost(i);
}

/// The MPDUs of one aged frame whose uniforms u are drawn: each decided
/// MPDU is bracketed by the grid cell of its own aged SINR, and the loss
/// mask collects the lost ones.
class AgedFrameDraw {
 public:
  AgedFrameDraw(const PerGrid& grid, const McsEntry& entry,
                const FramePricer& pricer, const double* u)
      : grid_(grid), entry_(entry), pricer_(pricer), u_(u) {}

  /// Decides MPDU i by its own bracket, pricing it exactly only when u_i
  /// falls inside, and returns the bracket.
  PerBracket decide(int i) {
    const double sinr = pricer_.sinr_db(i);
    const PerBracket b = grid_.bracket(entry_, sinr);
    if (lost_by(b, u_[i], [&] { return pricer_.per_at(sinr); }))
      lost_ |= mpdu_bit(i);
    return b;
  }

  /// Decides MPDUs [first, last], all of which lie strictly between a
  /// decided MPDU below, whose bracket gives `lost_below`, and one above,
  /// whose bracket gives `kept_from`. per[i] is non-decreasing in i within
  /// ampdu_bracket_margin, so those outer bracket ends bound every price
  /// between them; the draws they leave undecided are split at the middle
  /// one, which is decided by its own bracket.
  void decide_span(int first, int last, double lost_below, double kept_from) {
    int lo = last + 1, hi = first - 1;  // extent of the undecided MPDUs
    for (int i = first; i <= last; ++i) {
      if (u_[i] < lost_below) {
        lost_ |= mpdu_bit(i);
      } else if (!(u_[i] >= kept_from)) {
        lo = std::min(lo, i);
        hi = i;
      }
    }
    if (lo > hi) return;
    const int mid = lo + (hi - lo) / 2;
    const PerBracket b = decide(mid);
    decide_span(lo, mid - 1, lost_below, b.kept_from);
    decide_span(mid + 1, hi, b.lost_below, kept_from);
  }

  std::uint64_t lost() const { return lost_; }

 private:
  const PerGrid& grid_;
  const McsEntry& entry_;
  const FramePricer& pricer_;
  const double* u_;
  std::uint64_t lost_ = 0;
};

/// One process-lifetime grid of PerGrid::shared, keyed by its payload and
/// the bits of its error model. The grids form a list that only grows at
/// its head and are never freed.
struct SharedGrid {
  struct Key {
    int payload_bytes;
    std::uint64_t stream_penalty_bits;
    std::uint64_t implementation_loss_bits;
    bool operator==(const Key&) const = default;
  };
  static_assert(sizeof(ErrorModelConfig) == 2 * sizeof(double),
                "the registry key holds every ErrorModelConfig field");

  SharedGrid(const Key& k, const ErrorModelConfig& config,
             const SharedGrid* rest)
      : key(k), grid(k.payload_bytes, config), next(rest) {}

  Key key;
  PerGrid grid;
  const SharedGrid* next;
};

constinit std::mutex shared_grids_mutex;
constinit const SharedGrid* shared_grids = nullptr;  // guarded by the mutex

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
                                const PerGrid& grid, Rng& rng,
                                MpduErrors* priced) {
  static_assert(kMaxAmpduMpdus <= 64, "the loss mask holds one bit per MPDU");
  require_mpdu_count("ampdu_mpdu_losses", n_mpdus);
  std::uint64_t lost = 0;
  if (priced) {
    ampdu_mpdu_errors(mcs_entry, snr_db, decorr_end, n_mpdus,
                      grid.payload_bytes(), grid.config(), *priced);
    for (int i = 0; i < n_mpdus; ++i)
      if (rng.chance(priced->per[static_cast<std::size_t>(i)]))
        lost |= mpdu_bit(i);
    return lost;
  }
  const FramePricer pricer(mcs_entry, snr_db, decorr_end, n_mpdus,
                           grid.payload_bytes(), grid.config());
  if (pricer.flat()) {
    const double sinr = pricer.sinr_db(0);
    draw_against(
        grid.bracket(mcs_entry, sinr), n_mpdus, rng,
        [&] { return pricer.per_at(sinr); },
        [&](int i) { lost |= mpdu_bit(i); });
    return lost;
  }
  // The callers draw a frame's n uniforms back to back, so drawing them all
  // before deciding leaves the stream unchanged.
  std::array<double, kMaxAmpduMpdus> u;
  for (int i = 0; i < n_mpdus; ++i)
    u[static_cast<std::size_t>(i)] = rng.uniform();
  AgedFrameDraw frame(grid, mcs_entry, pricer, u.data());
  const PerBracket first = frame.decide(0);
  if (n_mpdus > 1) {
    const PerBracket last = frame.decide(n_mpdus - 1);
    frame.decide_span(1, n_mpdus - 2, first.lost_below, last.kept_from);
  }
  return frame.lost();
}

void PerGrid::Unmap::operator()(double* per) const {
  munmap(per, kBytes);
}

PerGrid::PerGrid(int payload_bytes, const ErrorModelConfig& config)
    : payload_bytes_(payload_bytes), config_(config) {
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

const PerGrid& PerGrid::shared(int payload_bytes,
                               const ErrorModelConfig& config) {
  const SharedGrid::Key key{
      payload_bytes, std::bit_cast<std::uint64_t>(config.stream_penalty_db),
      std::bit_cast<std::uint64_t>(config.implementation_loss_db)};
  const std::lock_guard<std::mutex> lock(shared_grids_mutex);
  for (const SharedGrid* node = shared_grids; node != nullptr;
       node = node->next)
    if (node->key == key) return node->grid;
  shared_grids = new SharedGrid(key, config, shared_grids);
  return shared_grids->grid;
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
      const ErrorChain chain(mcs(entry.index), payload_bytes_, config_);
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

PerBracket PerGrid::bracket(const McsEntry& entry, double snr_db) const {
  // The price lies in [floor_per, ceil_per]: the PERs at the upper and
  // lower SNR end of snr_db's cell. A NaN SNR matches no branch.
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
  return {floor_per - ampdu_bracket_margin(floor_per),
          ceil_per + ampdu_bracket_margin(ceil_per)};
}

int PerGrid::losses(const McsEntry& entry, double snr_db, int n,
                    Rng& rng) const {
  int lost = 0;
  draw_against(
      bracket(entry, snr_db), n, rng,
      [&] { return per_from_snr(entry, snr_db, payload_bytes_, config_); },
      [&lost](int) { ++lost; });
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
