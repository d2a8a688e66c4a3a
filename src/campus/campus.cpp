#include "campus/campus.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "util/alloc_count.hpp"

namespace mobiwlan::campus {

ChannelConfig campus_channel_config() {
  ChannelConfig cfg;
  cfg.n_tx = 1;
  cfg.n_rx = 1;
  cfg.n_subcarriers = 16;
  cfg.n_paths = 4;
  cfg.activity = EnvironmentalActivity::kNone;
  return cfg;
}

CampusConfig campus_default_config() {
  CampusConfig cfg;
  cfg.session.channel = campus_channel_config();
  return cfg;
}

namespace {

// Rejects a config the constructor's members or run() cannot serve; runs
// before any member is built.
const CampusConfig& validated(const CampusConfig& cfg) {
  if (cfg.cols == 0 || cfg.rows == 0)
    throw CampusConfigError(
        CampusConfigError::Code::kEmptyGrid,
        "campus: AP grid is " + std::to_string(cfg.cols) + "x" +
            std::to_string(cfg.rows) + "; cols and rows must be >= 1");
  if (!(std::isfinite(cfg.pitch_m) && cfg.pitch_m > 0.0))
    throw CampusConfigError(CampusConfigError::Code::kBadPitch,
                            "campus: pitch_m " + std::to_string(cfg.pitch_m) +
                                " must be finite and > 0");
  if (!(std::isfinite(cfg.session.tick_s) && cfg.session.tick_s > 0.0))
    throw CampusConfigError(
        CampusConfigError::Code::kBadTick,
        "campus: session.tick_s " + std::to_string(cfg.session.tick_s) +
            " must be finite and > 0");
  const ChannelConfig& ch = cfg.session.channel;
  if (ch.n_tx == 0 || ch.n_rx == 0 || ch.n_subcarriers == 0)
    throw CampusConfigError(
        CampusConfigError::Code::kBadChannelShape,
        "campus: session.channel is " + std::to_string(ch.n_tx) + "x" +
            std::to_string(ch.n_rx) + "x" + std::to_string(ch.n_subcarriers) +
            " (n_tx x n_rx x n_subcarriers); each must be >= 1");
  const SessionParams& sp = cfg.session;
  if (sp.mpdus_per_exchange < 1 || sp.mpdus_while_probing < 1 ||
      sp.mpdu_payload_bytes < 1)
    throw CampusConfigError(
        CampusConfigError::Code::kBadMacExchange,
        "campus: session.mpdus_per_exchange " +
            std::to_string(sp.mpdus_per_exchange) + ", mpdus_while_probing " +
            std::to_string(sp.mpdus_while_probing) + " and mpdu_payload_bytes " +
            std::to_string(sp.mpdu_payload_bytes) + " must each be >= 1");
  if (cfg.arrival_window_epochs >
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw CampusConfigError(
        CampusConfigError::Code::kArrivalWindowTooLong,
        "campus: arrival_window_epochs " +
            std::to_string(cfg.arrival_window_epochs) + " exceeds INT_MAX");
  if (!(std::isfinite(cfg.mean_extra_dwell_epochs) &&
        cfg.mean_extra_dwell_epochs >= 0.0))
    throw CampusConfigError(
        CampusConfigError::Code::kBadExtraDwell,
        "campus: mean_extra_dwell_epochs " +
            std::to_string(cfg.mean_extra_dwell_epochs) +
            " must be finite and >= 0");
  if (cfg.min_dwell_epochs > cfg.max_dwell_epochs)
    throw CampusConfigError(
        CampusConfigError::Code::kDwellRangeInverted,
        "campus: min_dwell_epochs " + std::to_string(cfg.min_dwell_epochs) +
            " > max_dwell_epochs " + std::to_string(cfg.max_dwell_epochs));
  // horizon < window + max dwell, without the sum's overflow.
  if (cfg.max_dwell_epochs > cfg.horizon_epochs ||
      cfg.horizon_epochs - cfg.max_dwell_epochs < cfg.arrival_window_epochs)
    throw CampusConfigError(
        CampusConfigError::Code::kHorizonTooShort,
        "campus: horizon_epochs " + std::to_string(cfg.horizon_epochs) +
            " < arrival_window_epochs " +
            std::to_string(cfg.arrival_window_epochs) + " + max_dwell_epochs " +
            std::to_string(cfg.max_dwell_epochs) +
            "; sessions would remain resident without a report");
  return cfg;
}

}  // namespace

CampusSim::CampusSim(const CampusConfig& config)
    : config_(validated(config)),
      map_(config.cols, config.rows, config.pitch_m),
      per_grid_(PerGrid::shared(config_.session.mpdu_payload_bytes, {})),
      pools_(config.shards == 0 ? 1 : config.shards),
      shards_(pools_.size()),
      mailbox_(shards_.size(), config.mailbox_lane_capacity),
      arrivals_root_(Rng(config.master_seed).stream(kArrivalSalt)) {
  config_.shards = shards_.size();
  if (config_.jobs > 1)
    pool_ = std::make_unique<runtime::ThreadPool>(config_.jobs - 1);

  arrival_window_ = config_.arrival_window_epochs < 1
                        ? 1
                        : static_cast<int>(config_.arrival_window_epochs);
  // No materialized schedule: one ascending-id pass buckets ids by their
  // re-derived arrival epoch (8 bytes per not-yet-arrived id); the dwell
  // draw waits until admission, where it continues the id's substream
  // exactly where the old sorted-schedule construction did.
  arrival_buckets_.resize(static_cast<std::size_t>(arrival_window_) + 1);
  for (std::uint64_t id = 0; id < config_.n_sessions; ++id) {
    Rng a = arrivals_root_.stream(id);
    const auto arrival =
        static_cast<std::size_t>(a.uniform_int(1, arrival_window_));
    arrival_buckets_[arrival].push_back(id);
  }
  std::size_t max_bucket = 0;
  for (const auto& bucket : arrival_buckets_)
    max_bucket = std::max(max_bucket, bucket.size());
  pending_.reserve(max_bucket);

  // Size every shard's and build slot's scratch and samples here, on the
  // constructing thread, from the channel config, and build the lazily
  // initialized MCS table and rate ladders: neither a shard pass nor an
  // arrival build then ever touches the heap. PER rows are built by the
  // shard passes into storage the grid mapped.
  const ChannelConfig& ch = config_.session.channel;
  const auto size_sample = [&ch](ChannelSample& sample) {
    sample.csi.resize_for_overwrite(ch.n_tx, ch.n_rx, ch.n_subcarriers);
  };
  build_slots_.resize(pool_ ? pool_->size() + 1 : 1);
  for (BuildSlot& b : build_slots_) {
    b.scratch.reserve(ch);
    size_sample(b.sample);
  }
  for (Shard& sh : shards_) {
    sh.scratch.reserve(ch);
    for (ChannelSample& sample : sh.samples) size_sample(sample);
  }
  mcs_table();
  (void)make_mobility_aware_atheros_ra();  // reads the rate ladders
}

std::uint64_t CampusSim::active() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.sessions.size();
  return n;
}

std::size_t CampusSim::pool_sessions() const {
  std::size_t n = 0;
  for (const SessionPool& pool : pools_) n += pool.constructed();
  return n;
}

std::uint64_t CampusSim::deferred_handovers() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.deferred;
  return n;
}

std::uint64_t CampusSim::hot_phase_allocs() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.hot_allocs;
  return n;
}

std::uint64_t CampusSim::arrival_build_allocs() const {
  std::uint64_t n = 0;
  for (const BuildSlot& b : build_slots_) n += b.allocs;
  return n;
}

void CampusSim::place(std::size_t dst, SessionPtr sp) {
  Shard& sh = shards_[dst];
  // A mailbox-delivered session one epoch from departure would be staged by
  // its new shard *before* sampling under a start-of-epoch scan; the fused
  // pass stages at the *end* of the previous epoch instead, so catch it here
  // (it is never stepped here). Arrivals can't hit this: dwell >= 2.
  if (sp->depart_epoch() <= epoch_ + 1) {
    sh.departing.push_back(std::move(sp));
    return;
  }
  sh.incoming.push_back(std::move(sp));
}

void CampusSim::merge_incoming() {
  const std::less<const Session*> before;
  for (Shard& sh : shards_) {
    // The fused pass stages every same-epoch departure into `departing`,
    // on top of any the drain staged: at most one more entry per hosted
    // session. Reserving for that here (serial phase, geometric growth)
    // keeps the hot phase structurally allocation-free.
    const std::size_t hosted = sh.sessions.size() + sh.incoming.size();
    const std::size_t need = sh.departing.size() + hosted;
    if (sh.departing.capacity() < need)
      sh.departing.reserve(std::max(need, 2 * sh.departing.capacity()));
    if (sh.incoming.empty()) continue;
    std::sort(sh.incoming.begin(), sh.incoming.end(),
              [&before](const SessionPtr& a, const SessionPtr& b) {
                return before(a.get(), b.get());
              });
    // Merge from the back, so each hosted session moves at most once.
    std::size_t i = sh.sessions.size();
    std::size_t j = sh.incoming.size();
    sh.sessions.resize(i + j);
    for (std::size_t out = i + j; j > 0;) {
      if (i > 0 && before(sh.incoming[j - 1].get(), sh.sessions[i - 1].get()))
        sh.sessions[--out] = std::move(sh.sessions[--i]);
      else
        sh.sessions[--out] = std::move(sh.incoming[--j]);
    }
    sh.incoming.clear();
  }
}

void CampusSim::phase_shard(std::size_t s) {
  Shard& sh = shards_[s];
  const double t = static_cast<double>(epoch_) * config_.session.tick_s;

  // One fused pass in ascending address order: each session is sampled,
  // observed (the Eq.-1 classifier step), MAC-stepped, roamed, and — when
  // its dwell ends next epoch — staged for departure, all while its state
  // is cache-hot. At campus scale the shard's sessions are far beyond L2,
  // so the pass is bound by streaming them in: each session is one
  // contiguous slab slot, most of them this shard's own consecutive
  // slots, and walking them forward lets the hardware prefetchers run
  // ahead. Survivors are compacted in place, which keeps the order.
  //
  // Bitwise neutrality vs. the multi-sweep form: per-session draw order
  // (sample -> observe -> MAC -> roam) is unchanged, sessions are mutually
  // independent within the phase, and staging a departure at the end of
  // epoch d-1 instead of the start of epoch d is a uniform one-epoch shift
  // for *every* session — the per-epoch id-sorted fold batches concatenate
  // to the identical sequence, so the aggregate folds the same bits.
  //
  // Sampling runs one tile of kTile sessions at a time (one staged
  // geometry / synthesis / noise pass per tile, ChannelBatch::sample_links),
  // then each of the tile's sessions is observed, MAC-stepped and roamed in
  // order. Also bitwise neutral: sampling draws only from the session's own
  // channel RNG, and no session's step reads another session's channel.
  const std::uint64_t allocs_before = thread_alloc_count();
  const std::size_t n = sh.sessions.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i % ChannelBatch::kTile;
    if (j == 0) {
      const std::size_t m = std::min(ChannelBatch::kTile, n - i);
      WirelessChannel* tile[ChannelBatch::kTile];
      for (std::size_t l = 0; l < m; ++l)
        tile[l] = sh.sessions[i + l]->channel();
      ChannelBatch::sample_links(tile, m, t, sh.samples.data(), sh.scratch);
    }
    SessionPtr& sp = sh.sessions[i];
    const ChannelSample& sample = sh.samples[j];
    sp->observe_step(epoch_, sample);
    sp->mac_step(epoch_, sample, per_grid_);
    sp->maybe_roam(t);
    if (sp->depart_epoch() <= epoch_ + 1) {
      // Dwell ends next epoch: this was the session's last step in every
      // partitioning, so it leaves the shard now.
      sh.departing.push_back(std::move(sp));
      continue;
    }
    const std::size_t dst = map_.shard_of_ap(sp->serving_ap(), shards_.size());
    if (dst != s) {
      // Cross-shard mover: leaves through this shard's own SPSC lane.
      if (mailbox_.try_send(s, dst, sp)) continue;  // consumed on success
      // Lane full: keep hosting for one more epoch. The session computes
      // the same observables here as it would on dst, so back-pressure is
      // observably invisible — it only shows up in this counter.
      ++sh.deferred;
    }
    if (kept != i) sh.sessions[kept] = std::move(sp);
    ++kept;
  }
  sh.sessions.resize(kept);
  sh.hot_allocs += thread_alloc_count() - allocs_before;
}

void CampusSim::drain_mailbox() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    const std::size_t delivered = mailbox_.drain_to(
        dst, [&](SessionPtr sp) { place(dst, std::move(sp)); });
    handovers_sent_ += delivered;
  }
}

void CampusSim::take_arrivals() {
  if (epoch_ >= arrival_buckets_.size()) return;
  std::vector<std::uint64_t>& bucket = arrival_buckets_[epoch_];
  for (const std::uint64_t id : bucket) {
    // Replay this id's fresh substream past its arrival draw; the dwell
    // draw then continues the stream exactly where one-shot schedule
    // construction would have. The clamp is decided in double, so a huge
    // exponential draw never reaches the integer cast.
    Rng a = arrivals_root_.stream(id);
    (void)a.uniform_int(1, arrival_window_);
    const double extra = a.exponential(config_.mean_extra_dwell_epochs);
    const std::uint64_t span =
        config_.max_dwell_epochs - config_.min_dwell_epochs;
    std::uint64_t dwell = extra >= static_cast<double>(span)
                              ? config_.max_dwell_epochs
                              : config_.min_dwell_epochs +
                                    static_cast<std::uint64_t>(extra);
    if (dwell < 2) dwell = 2;  // at least one pass step before departure

    const std::size_t dst = map_.shard_of_ap(
        Session::home_ap(id, config_.master_seed, map_), shards_.size());
    pending_.push_back({arrival_pool(dst).take(dwell), id, dwell});
  }
  bucket = {};  // release this epoch's bucket storage
}

SessionPool& CampusSim::arrival_pool(std::size_t dst) {
  // The hosting shard's own free session first. Failing that, borrow from
  // the pool with the most free sessions (lowest shard on ties): a session
  // is then constructed only when every free list is empty — exactly when
  // one campus-wide free list would have been — so pool_sessions() does not
  // depend on the shard count.
  SessionPool* pool = &pools_[dst];
  if (pool->free_count() > 0) return *pool;
  for (SessionPool& p : pools_)
    if (p.free_count() > pool->free_count()) pool = &p;
  return *pool;
}

void CampusSim::build_arrivals(std::size_t chunk, BuildSlot& slot) {
  const std::uint64_t allocs_before = thread_alloc_count();
  const std::size_t begin = chunk * kArrivalChunk;
  const std::size_t end = std::min(pending_.size(), begin + kArrivalChunk);
  for (std::size_t k = begin; k < end; ++k) {
    Arrival& a = pending_[k];
    a.taken
        .build(a.id, config_.master_seed, map_, config_.session, epoch_,
               a.dwell)
        .prime(slot.scratch, slot.sample);
  }
  slot.allocs += thread_alloc_count() - allocs_before;
}

void CampusSim::place_arrivals() {
  for (Arrival& a : pending_) {
    SessionPtr sp = a.taken.release();
    const std::size_t dst = map_.shard_of_ap(sp->serving_ap(), shards_.size());
    place(dst, std::move(sp));
  }
  arrived_ += pending_.size();
  pending_.clear();
}

void CampusSim::fold_departures() {
  departed_stats_.clear();
  for (Shard& sh : shards_) {
    for (SessionPtr& sp : sh.departing) departed_stats_.push_back(sp->stats());
    sh.departing.clear();  // recycles the sessions into the pool
  }
  if (departed_stats_.empty()) return;
  std::sort(departed_stats_.begin(), departed_stats_.end(),
            [](const SessionStats& x, const SessionStats& y) {
              return x.id < y.id;
            });
  for (const SessionStats& st : departed_stats_) aggregate_.fold(st);
  departed_ += departed_stats_.size();
}

void CampusSim::step_epoch() {
  ++epoch_;
  take_arrivals();

  // One parallel phase, one barrier. Items [0, S) are the fused shard
  // passes: within an epoch no shard reads another shard's state (handover
  // only enqueues into this shard's own SPSC lanes), so departures, the hot
  // section and roam/send need no intermediate barriers. Items [S, S + A)
  // build and prime this epoch's arrivals, fresh and recycled, in slots no
  // shard references.
  const std::size_t n_shards = shards_.size();
  const std::size_t n_items =
      n_shards + (pending_.size() + kArrivalChunk - 1) / kArrivalChunk;
  const auto item = [this, n_shards](std::size_t slot, std::size_t i) {
    if (i < n_shards)
      phase_shard(i);
    else
      build_arrivals(i - n_shards, build_slots_[slot]);
  };
  if (pool_) {
    pool_->parallel_for(n_items, 1,
                        [&item](std::size_t slot, std::size_t begin,
                                std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            item(slot, i);
                        });
  } else {
    for (std::size_t i = 0; i < n_items; ++i) item(0, i);
  }

  // Serial tail: everything order-sensitive runs here, after the barrier,
  // in fixed (shard id, session id) order.
  drain_mailbox();
  place_arrivals();
  merge_incoming();
  fold_departures();
}

void CampusSim::run() {
  while (epoch_ < config_.horizon_epochs) step_epoch();
}

}  // namespace mobiwlan::campus
