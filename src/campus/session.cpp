#include "campus/session.hpp"

#include <algorithm>
#include <cassert>

#include "mac/aggregation.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan::campus {

std::size_t CampusMap::nearest_ap(Vec2 p) const {
  const auto clamp_index = [](double v, std::size_t n) -> std::size_t {
    if (v <= 0.0) return 0;
    const auto i = static_cast<std::size_t>(v + 0.5);
    return i >= n ? n - 1 : i;
  };
  const std::size_t col = clamp_index((p.x - origin_.x) / pitch_m_, cols_);
  const std::size_t row = clamp_index((p.y - origin_.y) / pitch_m_, rows_);
  return row * cols_ + col;
}

CampusWalk::CampusWalk(Vec2 home, Vec2 bounds_min, Vec2 bounds_max, double t0,
                       double leg_s, double wander_m, std::size_t n_legs,
                       std::uint64_t seed) {
  rebuild(home, bounds_min, bounds_max, t0, leg_s, wander_m, n_legs, seed);
}

void CampusWalk::rebuild(Vec2 home, Vec2 bounds_min, Vec2 bounds_max,
                         double t0, double leg_s, double wander_m,
                         std::size_t n_legs, std::uint64_t seed) {
  t0_ = t0;
  leg_s_ = leg_s;
  memo_t_ = std::numeric_limits<double>::quiet_NaN();
  waypoints_.clear();
  waypoints_.reserve(n_legs + 1);
  waypoints_.push_back(home);
  const Rng root(seed);
  Vec2 p = home;
  for (std::size_t k = 1; k <= n_legs; ++k) {
    // One counter-derived substream per leg: waypoint k never depends on
    // how many draws any other component took.
    Rng leg = root.stream(k);
    p.x = std::clamp(p.x + leg.uniform(-wander_m, wander_m), bounds_min.x,
                     bounds_max.x);
    p.y = std::clamp(p.y + leg.uniform(-wander_m, wander_m), bounds_min.y,
                     bounds_max.y);
    waypoints_.push_back(p);
  }
}

Vec2 CampusWalk::position(double t) const {
  if (t == memo_t_) return memo_pos_;
  const double tau = t - t0_;
  Vec2 pos;
  if (tau <= 0.0) {
    pos = waypoints_.front();
  } else {
    const double legf = tau / leg_s_;
    const auto k = static_cast<std::size_t>(legf);
    if (k + 1 >= waypoints_.size()) {
      pos = waypoints_.back();
    } else {
      const double f = legf - static_cast<double>(k);
      const Vec2 a = waypoints_[k];
      const Vec2 b = waypoints_[k + 1];
      pos = {a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f};
    }
  }
  memo_t_ = t;
  memo_pos_ = pos;
  return pos;
}

Session::Session(std::uint64_t id, std::uint64_t master_seed,
                 const CampusMap& map, const SessionParams& params,
                 std::uint64_t arrival_epoch, std::uint64_t dwell_epochs)
    : map_(map),
      params_(params),
      master_seed_(master_seed),
      // Non-owning alias of the in-object walk (empty owner: no control
      // block, never deletes). &walk_ is stable — sessions are pool slots.
      walk_ref_(std::shared_ptr<const CampusWalk>(), &walk_),
      channel_(params.channel, walk_ref_),
      classifier_(params.classifier),
      ra_(make_mobility_aware_atheros_ra()) {
  reinit(id, arrival_epoch, dwell_epochs);
}

namespace {

Rng session_base(std::uint64_t id, std::uint64_t master_seed) {
  return Rng(master_seed).stream(kSessionSalt).stream(id);
}

Vec2 home_point(const Rng& base, const CampusMap& map) {
  Rng home_rng = base.stream(kHomeSalt);
  const Vec2 lo = map.bounds_min();
  const Vec2 hi = map.bounds_max();
  // Braced init: x is drawn before y.
  return Vec2{home_rng.uniform(lo.x, hi.x), home_rng.uniform(lo.y, hi.y)};
}

}  // namespace

std::size_t Session::home_ap(std::uint64_t id, std::uint64_t master_seed,
                             const CampusMap& map) {
  return map.nearest_ap(home_point(session_base(id, master_seed), map));
}

void Session::reinit(std::uint64_t id, std::uint64_t arrival_epoch,
                     std::uint64_t dwell_epochs) {
  base_ = session_base(id, master_seed_);
  mac_rng_ = base_.stream(kMacSalt);
  classifier_.reset();
  ra_.reset();
  stats_ = SessionStats{};
  stats_.id = id;
  stats_.arrival_epoch = arrival_epoch;
  stats_.depart_epoch = arrival_epoch + dwell_epochs;

  const Vec2 home = home_point(base_, map_);
  const Vec2 lo = map_.bounds_min();
  const Vec2 hi = map_.bounds_max();
  const double t0 = static_cast<double>(arrival_epoch) * params_.tick_s;
  walk_.rebuild(home, lo, hi, t0, params_.walk_leg_s, params_.walk_wander_m,
                walk_legs(dwell_epochs), base_.stream(kWalkSalt).seed());
  associate(map_.nearest_ap(home));
}

std::size_t Session::walk_legs(std::uint64_t dwell_epochs) const {
  const double dwell_s = static_cast<double>(dwell_epochs) * params_.tick_s;
  return static_cast<std::size_t>(dwell_s / params_.walk_leg_s) + 2;
}

void Session::reserve(std::uint64_t dwell_epochs) {
  walk_.reserve(walk_legs(dwell_epochs));
}

void Session::associate(std::size_t ap) {
  serving_ap_ = ap;
  // The channel realization is keyed by (session, AP): revisiting an AP
  // replays the same scatterer field — deterministic, and independent of
  // when or from which shard the association happens. It is re-drawn in
  // place, inside the session.
  channel_.reinit(map_.ap_position(ap),
                  base_.stream(kChannelSalt).stream(
                      static_cast<std::uint64_t>(ap)));
}

void Session::prime(ChannelBatch::Scratch& scratch, ChannelSample& sample) {
  const double t0 =
      static_cast<double>(stats_.arrival_epoch) * params_.tick_s;
  // Two consecutive samples one tick apart: the association burst that
  // anchors the classifier's similarity stream before the shard pass sees
  // the session. The channel engine's kernels are bitwise tier-invariant, so
  // the digest is the same on every SIMD tier.
  ChannelBatch::sample_link(channel_, t0 - params_.tick_s, sample, scratch);
  observe(t0 - params_.tick_s, stats_.arrival_epoch, sample);
  ChannelBatch::sample_link(channel_, t0, sample, scratch);
  observe(t0, stats_.arrival_epoch, sample);
}

void Session::observe(double t, std::uint64_t epoch,
                      const ChannelSample& sample) {
  ++stats_.steps;
  stats_.sum_rssi_dbm += sample.rssi_dbm;
  stats_.sum_tof_cycles += sample.tof_cycles;
  classifier_.on_csi(t, sample.csi);
  classifier_.on_tof(t, sample.tof_cycles);
  double sim_word = -1.0;  // sentinel: similarity not established yet
  if (const auto sim = classifier_.similarity()) {
    stats_.sum_similarity += *sim;
    ++stats_.similarity_steps;
    sim_word = *sim;
  }
  const MobilityMode mode = classifier_.mode();
  ++stats_.mode_steps[static_cast<std::size_t>(mode)];

  std::uint64_t d = stats_.digest;
  d = fnv1a_mix(d, sample.rssi_dbm);
  d = fnv1a_mix(d, sample.tof_cycles);
  d = fnv1a_mix(d, sim_word);
  d = fnv1a_mix(d, static_cast<std::uint64_t>(mode));
  d = fnv1a_mix(d, static_cast<std::uint64_t>(serving_ap_));
  d = fnv1a_mix(d, epoch);
  stats_.digest = d;
}

void Session::observe_step(std::uint64_t epoch, const ChannelSample& sample) {
  observe(static_cast<double>(epoch) * params_.tick_s, epoch, sample);
}

void Session::mac_step(std::uint64_t epoch, const ChannelSample& sample) {
  mac_step(epoch, sample, PerGrid::shared(params_.mpdu_payload_bytes, {}));
}

void Session::mac_step(std::uint64_t epoch, const ChannelSample& sample,
                       const PerGrid& per_grid) {
  const double t = static_cast<double>(epoch) * params_.tick_s;

  // One rate-adaptation exchange per tick: the mobility-aware Atheros RA
  // (§4.2) keyed by the classifier's hold-then-decay decision, per-MPDU
  // losses drawn from the PHY error model at the sample's true SNR.
  TxContext ctx;
  ctx.t = t;
  ctx.mobility = classifier_.decision(t);
  ctx.mpdu_payload_bytes = params_.mpdu_payload_bytes;
  const int mcs_index = ra_.select_mcs(ctx);
  const McsEntry& entry = mcs(mcs_index);
  const int n = ra_.probing() ? params_.mpdus_while_probing
                              : params_.mpdus_per_exchange;
  assert(per_grid.payload_bytes() == params_.mpdu_payload_bytes);
  const int failed = per_grid.losses(entry, sample.snr_db, n, mac_rng_);

  FrameResult fr;
  fr.t = t;
  fr.mcs = mcs_index;
  fr.n_mpdus = n;
  fr.n_failed = failed;
  fr.block_ack_received = failed < n;
  ra_.on_result(fr, ctx);

  ++stats_.mac_steps;
  stats_.mpdus_sent += static_cast<std::uint64_t>(n);
  stats_.mpdus_failed += static_cast<std::uint64_t>(failed);
  stats_.sum_goodput_mbps +=
      entry.rate_mbps *
      (1.0 - static_cast<double>(failed) / static_cast<double>(n));

  std::uint64_t d = stats_.digest;
  d = fnv1a_mix(d, static_cast<std::uint64_t>(mcs_index));
  d = fnv1a_mix(d, static_cast<std::uint64_t>(failed));
  stats_.digest = d;
}

bool Session::maybe_roam(double t) {
  const Vec2 p = walk_.position(t);
  const std::size_t cand = map_.nearest_ap(p);
  if (cand == serving_ap_) return false;
  const double d_cand = distance(p, map_.ap_position(cand));
  const double d_serv = distance(p, map_.ap_position(serving_ap_));
  if (d_cand + params_.handover_hysteresis_m >= d_serv) return false;
  associate(cand);
  ++stats_.ap_handovers;
  return true;
}

}  // namespace mobiwlan::campus
