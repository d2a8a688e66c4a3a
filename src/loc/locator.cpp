#include "loc/locator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/units.hpp"

namespace mobiwlan::loc {

Locator::Locator(const FingerprintDb* db, const LocatorConfig& cfg)
    : db_(db), cfg_(cfg) {}

void Locator::begin_query(Scratch& s) const {
  const std::size_t n_aps = db_->n_aps();
  s.feat.assign(n_aps * kFeat, 0.0f);
  s.rssi.assign(n_aps, static_cast<float>(db_->config().rssi_floor_dbm));
  s.mask = 0;
  s.strongest_ap = 0;
  s.strongest_rssi = -std::numeric_limits<float>::infinity();
  s.cand.clear();
  s.cand.reserve(cfg_.coarse_keep);
  s.cand_dist.clear();
  s.cand_dist.reserve(cfg_.coarse_keep);
  s.ap_dist.clear();
  s.ap_dist.reserve(n_aps);
}

void Locator::observe_ap(Scratch& s, std::size_t ap, const CsiMatrix& csi,
                         double rssi_dbm) const {
  if (rssi_dbm < db_->config().rssi_floor_dbm) return;
  extract_features(csi, rssi_dbm, &s.feat[ap * kFeat]);
  const float r = s.feat[ap * kFeat];
  s.rssi[ap] = r;
  s.mask |= std::uint64_t{1} << ap;
  // Lowest index wins RSSI ties so the result is invariant under the
  // order APs were observed in (the proptest permutation property).
  if (r > s.strongest_rssi || (r == s.strongest_rssi && ap < s.strongest_ap)) {
    s.strongest_rssi = r;
    s.strongest_ap = ap;
  }
}

void Locator::seed_query_from_cell(Scratch& s, std::size_t cell) const {
  begin_query(s);
  const float* row = db_->cell_features(cell);
  const float* rrow = db_->cell_rssi(cell);
  std::uint64_t bits = db_->cell_mask(cell);
  s.mask = bits;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    for (std::size_t f = 0; f < kFeat; ++f)
      s.feat[ap * kFeat + f] = row[ap * kFeat + f];
    s.rssi[ap] = rrow[ap];
    if (rrow[ap] > s.strongest_rssi) {
      s.strongest_rssi = rrow[ap];
      s.strongest_ap = ap;
    }
  }
}

double Locator::fingerprint_distance(Scratch& s, std::size_t cell,
                                     int trim_override) const {
  const std::uint64_t cmask = db_->cell_mask(cell);
  const std::uint64_t shared = s.mask & cmask;
  if (shared == 0) return std::numeric_limits<double>::infinity();
  const float* packed = db_->packed_features(cell);

  // Walk the cell's packed row (mask-bit order) and keep the APs the query
  // also saw — ascending-AP order, so ap_dist is identical to a gather over
  // the full [ap][kFeat] row.
  s.ap_dist.clear();
  std::uint64_t bits = cmask;
  std::size_t rank = 0;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    const float* c = &packed[rank * kFeat];
    ++rank;
    if ((shared >> ap & 1) == 0) continue;
    const float* q = &s.feat[ap * kFeat];
    double d2 = 0.0;
    for (std::size_t f = 0; f < kFeat; ++f) {
      const double diff = static_cast<double>(q[f]) - static_cast<double>(c[f]);
      d2 += diff * diff;
    }
    s.ap_dist.push_back(d2);
  }

  const std::size_t trim = trim_override >= 0
                               ? static_cast<std::size_t>(trim_override)
                               : cfg_.trim;
  std::size_t kept = s.ap_dist.size();
  if (trim > 0 && kept > trim && kept - trim >= cfg_.min_kept_aps) {
    // Partition the `trim` largest per-AP distances to the tail and drop
    // them — O(n), no sort, no allocation (ap_dist capacity is retained).
    std::nth_element(s.ap_dist.begin(),
                     s.ap_dist.begin() + static_cast<std::ptrdiff_t>(kept - trim),
                     s.ap_dist.end());
    kept -= trim;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) sum += s.ap_dist[i];
  return sum / static_cast<double>(kept);
}

LocEstimate Locator::locate(Scratch& s) const {
  LocEstimate out;
  if (s.mask == 0) return out;
  const std::vector<std::uint32_t>& posting = db_->postings(s.strongest_ap);
  if (posting.empty()) return out;

  // Stage 1: coarse RSSI-plane scan over the strongest AP's postings, one
  // sequential pass per query AP down that AP's transposed plane. The
  // per-entry accumulation order (ascending AP) matches what a per-cell
  // mask walk would do, so scores are bitwise independent of the layout.
  s.qaps.clear();
  for (std::uint64_t bits = s.mask; bits != 0; bits &= bits - 1)
    s.qaps.push_back(static_cast<std::uint32_t>(std::countr_zero(bits)));
  s.coarse_acc.assign(posting.size(), 0.0);
  for (const std::uint32_t ap : s.qaps) {
    const double q = static_cast<double>(s.rssi[ap]);
    if (const float* pp = db_->pair_plane(s.strongest_ap, ap)) {
      // Posting-ordered plane: contiguous, no indirection, vectorizes.
      for (std::size_t i = 0; i < posting.size(); ++i) {
        const double diff = q - static_cast<double>(pp[i]);
        s.coarse_acc[i] += diff * diff;
      }
    } else {
      const float* plane = db_->rssi_plane(ap);
      for (std::size_t i = 0; i < posting.size(); ++i) {
        const double diff = q - static_cast<double>(plane[posting[i]]);
        s.coarse_acc[i] += diff * diff;
      }
    }
  }

  // Top-coarse_keep selection on (score, cell) pairs through a bounded
  // max-heap: one compare against the heap root per entry, a heap update
  // only when an entry beats the current 16th-best. The kept set is the
  // `keep` lexicographically smallest pairs — score ties fall to the lowest
  // cell id — so the candidates are a pure function of the scores no matter
  // how they are selected (nth_element over all pairs picks the same set,
  // just several times slower at this keep/posting ratio).
  // The posting sweep is spatially ordered, so scores fall monotonically
  // toward the best-matching region and a front-to-back scan would beat
  // the heap root hundreds of times. Visiting in a golden-ratio stride
  // (co-prime with n, so every entry is seen once) decorrelates the score
  // sequence and cuts heap updates to the random-order expectation of
  // ~keep*ln(n/keep). The kept set — and therefore the result — does not
  // depend on visit order.
  const std::size_t n = posting.size();
  const std::size_t keep = std::min(cfg_.coarse_keep, n);
  std::size_t stride = 1;
  if (n > 2 * keep) {
    stride = (n * 61) / 100 | 1;
    while (std::gcd(stride, n) != 1) stride += 2;
  }
  s.sel.clear();
  std::size_t at = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::pair<double, std::uint32_t> p{s.coarse_acc[at], posting[at]};
    at += stride;
    if (at >= n) at -= n;
    if (s.sel.size() < keep) {
      s.sel.push_back(p);
      if (s.sel.size() == keep) std::make_heap(s.sel.begin(), s.sel.end());
    } else if (p < s.sel.front()) {
      std::pop_heap(s.sel.begin(), s.sel.end());
      s.sel.back() = p;
      std::push_heap(s.sel.begin(), s.sel.end());
    }
  }
  std::sort(s.sel.begin(), s.sel.end());
  s.cand.clear();
  s.cand_dist.clear();
  for (std::size_t i = 0; i < keep; ++i) {
    s.cand.push_back(s.sel[i].second);
    s.cand_dist.push_back(s.sel[i].first);
  }

  // Stage 2: fine trimmed distance on the survivors, reusing cand_dist.
  for (std::size_t i = 0; i < s.cand.size(); ++i)
    s.cand_dist[i] = fingerprint_distance(s, s.cand[i]);
  // Full insertion sort of the <= coarse_keep survivors: stable, so equal
  // fine distances keep their (deterministic) coarse order.
  for (std::size_t i = 1; i < s.cand.size(); ++i) {
    const double d = s.cand_dist[i];
    const std::uint32_t c = s.cand[i];
    std::size_t j = i;
    for (; j > 0 && s.cand_dist[j - 1] > d; --j) {
      s.cand_dist[j] = s.cand_dist[j - 1];
      s.cand[j] = s.cand[j - 1];
    }
    s.cand_dist[j] = d;
    s.cand[j] = c;
  }

  const std::size_t kk = std::min(cfg_.k, s.cand.size());
  double wsum = 0.0;
  Vec2 pos{};
  for (std::size_t i = 0; i < kk; ++i) {
    if (!std::isfinite(s.cand_dist[i])) break;  // no-shared-AP tail
    const double w = 1.0 / (s.cand_dist[i] + 1e-6);
    pos = pos + db_->cell_center(s.cand[i]) * w;
    wsum += w;
  }
  if (wsum <= 0.0) return out;
  out.position = pos * (1.0 / wsum);
  out.cell = s.cand[0];
  out.distance = s.cand_dist[0];
  out.valid = true;
  return out;
}

LocEstimate Locator::locate_fused(Scratch& s, const AoaEstimate& aoa,
                                  std::size_t serving_ap,
                                  double tof_cycles) const {
  LocEstimate est = locate(s);
  if (!est.valid) return est;
  // The confidence floor is what rejects the degenerate all-zero-CSI
  // estimate (ratio 0, NaN angle); the isfinite check is belt-and-braces.
  if (!(aoa.peak_ratio >= cfg_.aoa_min_peak_ratio) ||
      !std::isfinite(aoa.angle_rad))
    return est;

  // Invert the ToF model: cycles = round((2 d / c * 1e9 + bias_ns) * 1e-9 * clock).
  const double rt_ns = tof_cycles / cfg_.tof_clock_hz * 1e9 - cfg_.tof_bias_ns;
  const double range = 0.5 * rt_ns * 1e-9 * kSpeedOfLight;
  if (!(range > 0.0) || range > cfg_.max_fused_range_m) return est;

  // The ULA folds arrival angles into [0, pi]: both mirror candidates are
  // geometrically consistent, so let the fingerprint estimate disambiguate.
  const Vec2 ap = db_->ap_position(serving_ap);
  const double c = std::cos(aoa.angle_rad);
  const double sn = std::sin(aoa.angle_rad);
  const Vec2 pa = ap + Vec2{c, sn} * range;
  const Vec2 pb = ap + Vec2{c, -sn} * range;
  const Vec2 p =
      distance(pa, est.position) <= distance(pb, est.position) ? pa : pb;
  const double w = cfg_.fusion_weight;
  est.position = est.position * (1.0 - w) + p * w;
  return est;
}

}  // namespace mobiwlan::loc
