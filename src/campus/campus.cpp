#include "campus/campus.hpp"

#include <algorithm>
#include <numeric>
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
      session_pool_(4096),
      shards_(config.shards == 0 ? 1 : config.shards),
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

  // Pre-size the shared per-shard sample (serial, once) so the hot phase
  // never allocates.
  const ChannelConfig& ch = config_.session.channel;
  for (Shard& sh : shards_)
    sh.sample.csi.resize(ch.n_tx, ch.n_rx, ch.n_subcarriers);
}

std::uint64_t CampusSim::active() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.occupied;
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

template <typename Fn>
void CampusSim::for_each_shard(Fn&& body) {
  if (pool_) {
    // One chunk per shard; parallel_for's return is the epoch barrier.
    pool_->parallel_for(shards_.size(), 1,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t s = begin; s < end; ++s) body(s);
                        });
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) body(s);
  }
}

void CampusSim::place(std::size_t dst, SessionPtr sp) {
  Shard& sh = shards_[dst];
  // A mailbox-delivered session one epoch from departure would be staged by
  // its new shard *before* sampling under a start-of-epoch scan; the fused
  // pass stages at the *end* of the previous epoch instead, so catch it here
  // (it never needs a slot). Arrivals can't hit this: dwell >= 2.
  if (sp->depart_epoch() <= epoch_ + 1) {
    sh.departing.push_back(std::move(sp));
    return;
  }
  const std::size_t slot = sh.batch.add_link(sp->channel());
  if (slot >= sh.sessions.size()) sh.sessions.resize(slot + 1);
  sh.sessions[slot] = std::move(sp);
  ++sh.occupied;
  // The fused pass stages every same-epoch departure into `departing`,
  // which can hold at most one entry per occupied slot. Reserving to the
  // slot vector's capacity here (serial phase, O(log n) reallocations)
  // keeps the hot phase structurally allocation-free even through the
  // drain wave after the arrival window closes.
  if (sh.departing.capacity() < sh.sessions.capacity())
    sh.departing.reserve(sh.sessions.capacity());
}

void CampusSim::phase_shard(std::size_t s) {
  Shard& sh = shards_[s];
  const double t = static_cast<double>(epoch_) * config_.session.tick_s;
  const std::size_t n_slots = sh.batch.size();

  // One fused pass: each occupied slot is sampled, observed (the batched
  // Eq.-1 classifier step), MAC-stepped, roamed, and — when its dwell ends
  // next epoch — staged for departure, all while its session/channel state
  // is cache-hot. At campus scale the shard's working set is far beyond L2,
  // so touching each session once per epoch instead of once per sweep is
  // what the throughput gate measures.
  //
  // Bitwise neutrality vs. the multi-sweep form: per-session draw order
  // (sample -> observe -> MAC -> roam) is unchanged, sessions are mutually
  // independent within the phase, and staging a departure at the end of
  // epoch d-1 instead of the start of epoch d is a uniform one-epoch shift
  // for *every* session — the per-epoch id-sorted fold batches concatenate
  // to the identical sequence, so the aggregate folds the same bits.
  // Software prefetch pays for itself only when the shard's working set
  // has outgrown L2 — then every session's lines were evicted since last
  // epoch and the misses (not the arithmetic) dominate the pass. Below
  // ~512 resident sessions (~4 KiB each, so ~2 MiB) the set is cache-
  // resident and the hint chain is pure issue-port overhead (~2x on the
  // 512-session microbench), so it is gated on occupancy. Purely a timing
  // decision: prefetches touch no architectural state, so the digests are
  // identical either way.
  const bool stream_ahead = sh.occupied >= 512;
  std::uint64_t allocs_before = 0;
  if (!pool_) allocs_before = alloc_count();
  for (std::size_t i = 0; i < n_slots; ++i) {
    SessionPtr& sp = sh.sessions[i];
    if (!sp) continue;
    // Stream upcoming slots' working sets in under this slot's synthesis:
    // slot i+1 gets the full set; slot i+2 gets its top-level objects so
    // the dependent buffer pointers are warm when its own full hint issues.
    if (stream_ahead) {
      if (i + 2 < n_slots) {
        if (const Session* nx2 = sh.sessions[i + 2].get()) {
          prefetch_lines(nx2, sizeof(Session));
          sh.batch.prefetch_slot(i + 2);
        }
      }
      if (i + 1 < n_slots) {
        if (const Session* nx = sh.sessions[i + 1].get()) {
          nx->prefetch();
          sh.batch.prefetch_slot(i + 1);
        }
      }
    }
    sh.batch.sample_slot(t, i, sh.sample, sh.scratch);
    sp->observe_step(epoch_, sh.sample);
    sp->mac_step(epoch_, sh.sample);
    sp->maybe_roam(t);
    if (sp->depart_epoch() <= epoch_ + 1) {
      // Dwell ends next epoch: this was the session's last batched step in
      // every partitioning, so it leaves the batch now.
      sh.batch.remove_link(i);
      sh.departing.push_back(std::move(sp));
      --sh.occupied;
      continue;
    }
    const std::size_t dst = map_.shard_of_ap(sp->serving_ap(), shards_.size());
    if (dst == s) continue;
    // Cross-shard mover: leaves through this shard's own SPSC lane. A
    // same-shard roam re-drew the channel realization in place (stable
    // address), so the batch slot needed no update at all.
    if (mailbox_.try_send(s, dst, sp)) {  // consumed only on success
      sh.batch.remove_link(i);
      --sh.occupied;
    } else {
      // Lane full: keep hosting for one more epoch. The session computes
      // the same observables here as it would on dst, so back-pressure is
      // observably invisible — it only shows up in this counter.
      ++sh.deferred;
    }
  }
  if (!pool_) sh.hot_allocs += alloc_count() - allocs_before;
}

void CampusSim::drain_mailbox() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    const std::size_t delivered = mailbox_.drain_to(
        dst, [&](SessionPtr sp) { place(dst, std::move(sp)); });
    handovers_sent_ += delivered;
  }
}

void CampusSim::admit_arrivals() {
  if (epoch_ >= arrival_buckets_.size()) return;
  std::vector<std::uint64_t>& bucket = arrival_buckets_[epoch_];
  for (const std::uint64_t id : bucket) {
    // Replay this id's fresh substream past its arrival draw; the dwell
    // draw then continues the stream exactly where one-shot schedule
    // construction would have.
    Rng a = arrivals_root_.stream(id);
    (void)a.uniform_int(1, arrival_window_);
    const auto extra = static_cast<std::uint64_t>(
        a.exponential(config_.mean_extra_dwell_epochs));
    std::uint64_t dwell = config_.min_dwell_epochs + extra;
    if (dwell > config_.max_dwell_epochs) dwell = config_.max_dwell_epochs;
    if (dwell < 2) dwell = 2;  // at least one batched step before departure

    SessionPtr sp = session_pool_.acquire(id, config_.master_seed, map_,
                                          config_.session, epoch_, dwell);
    sp->prime(prime_scratch_, prime_sample_);
    const std::size_t dst = map_.shard_of_ap(sp->serving_ap(), shards_.size());
    place(dst, std::move(sp));
    ++arrived_;
  }
  bucket = {};  // release this epoch's bucket storage
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

  // One fused parallel phase: within an epoch no shard reads another
  // shard's state (handover only enqueues into this shard's own SPSC
  // lanes), so departures, the hot section, and roam/send need no
  // intermediate barriers.
  for_each_shard([this](std::size_t s) { phase_shard(s); });

  // Serial tail: everything order-sensitive runs here, after the barrier,
  // in fixed (shard id, session id) order.
  drain_mailbox();
  admit_arrivals();
  fold_departures();
}

void CampusSim::run() {
  while (epoch_ < config_.horizon_epochs) step_epoch();
}

}  // namespace mobiwlan::campus
