// campus.hpp — campus-scale sharded deployment with live client churn.
//
// CampusSim runs thousands of APs partitioned into shards. Each shard owns
// a ChannelBatch over the sessions it currently hosts and steps them with
// the batched engine; client sessions arrive by a seeded process, walk
// between shards, and depart, folding their statistics into a streamed
// aggregate (stats_stream.hpp) — per-session records are never
// materialized. Cross-shard handover travels through the bounded lock-free
// HandoverMailbox (mailbox.hpp).
//
// Scale mechanics (DESIGN.md §8): sessions live in a slab pool
// (session_pool.hpp) and are recycled across arrivals without touching the
// global allocator; arrivals are streamed from their counter-based RNG
// substreams instead of a materialized schedule (O(not-yet-arrived) ids, a
// single 8-byte word each, instead of a sorted 24-byte-per-session vector);
// and shard batch membership is incremental — a session occupies one batch
// slot from admission to departure, and only churned links touch the SoA
// planes. Same-shard roams re-draw the channel realization in place at a
// stable address, so they touch no batch state at all.
//
// Determinism contract (the property the shard-invariance suite gates):
// every per-session observable — and therefore the campus aggregate — is
// bitwise identical for any shard count and any worker count. Three
// mechanisms carry the proof:
//
//   1. Session state is a pure function of (master seed, session id, time):
//      all randomness comes from counter-derived Rng substreams keyed by
//      the session id, never by the hosting shard or worker (session.hpp).
//      Batch slot order is therefore irrelevant to the bits a session
//      computes — slots only decide which out[] element receives them.
//   2. Epochs are barriered: the fused parallel phase (stage departures,
//      batched sample + step, roam + handover send) runs one shard per
//      worker with no cross-shard communication except SPSC mailbox lanes
//      written by their owning source shard, and ends at a
//      ThreadPool::parallel_for barrier. Everything order-sensitive
//      (mailbox drain, arrivals, departure folding) runs serially after the
//      barrier in fixed (shard id, session id) order. Worker count can
//      change who executes a shard, never what the shard computes.
//   3. Handover moves the Session object wholesale — classifier
//      hold-then-decay state, rate-adaptation state, channel RNG and all —
//      so hosting is invisible. A handover deferred by mailbox back-pressure
//      just steps one more epoch in the source shard, which by (1) computes
//      the same observables the destination would have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campus/mailbox.hpp"
#include "campus/session.hpp"
#include "campus/session_pool.hpp"
#include "campus/stats_stream.hpp"
#include "chan/channel_batch.hpp"
#include "runtime/thread_pool.hpp"

namespace mobiwlan::campus {

/// Campus-wide knobs. The defaults are the `--suite campus` scenario:
/// a 32x32 AP grid (1024 APs) absorbing 100k sessions over an 80-epoch
/// arrival window, everyone departed by the 130-epoch horizon.
struct CampusConfig {
  std::size_t cols = 32;             ///< AP grid columns
  std::size_t rows = 32;             ///< AP grid rows
  double pitch_m = 30.0;             ///< AP spacing
  std::size_t shards = 4;            ///< partition of the AP index space
  std::size_t jobs = 1;              ///< worker threads stepping shards
  std::uint64_t master_seed = 20140204;  // runtime::kMasterSeed

  std::uint64_t n_sessions = 100000;
  std::uint64_t arrival_window_epochs = 80;  ///< arrivals in epochs [1, window]
  std::uint64_t min_dwell_epochs = 4;
  double mean_extra_dwell_epochs = 8.0;      ///< exponential tail on dwell
  std::uint64_t max_dwell_epochs = 40;
  std::uint64_t horizon_epochs = 130;        ///< epochs run() executes

  std::size_t mailbox_lane_capacity = 1024;  ///< per (src,dst) lane bound

  SessionParams session;  ///< per-session knobs (campus_channel_config() etc.)
};

/// The ChannelConfig every campus session uses unless overridden: a light
/// 1x1 link with 16 subcarriers and 4 scatterer paths, so a hundred
/// thousand sessions stay affordable while every classifier-relevant
/// mechanism (per-path phase rotation, ToF trend, shadowing) is intact.
ChannelConfig campus_channel_config();

/// CampusConfig with campus_channel_config() applied — the `--suite campus`
/// scenario defaults.
CampusConfig campus_default_config();

/// A CampusConfig CampusSim refuses to run, with the reason as a code.
class CampusConfigError : public std::invalid_argument {
 public:
  enum class Code {
    kEmptyGrid,        ///< cols == 0 or rows == 0: no AP to shard
    kHorizonTooShort,  ///< horizon < arrival window + max dwell: a late
                       ///< arrival would still be resident when run() ends
  };

  CampusConfigError(Code code, const std::string& what)
      : std::invalid_argument(what), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

/// The sharded campus simulation. Construct, then run() (or step_epoch()
/// in a loop); read the aggregate and conservation counters afterwards.
class CampusSim {
 public:
  /// Throws CampusConfigError for a config it cannot run to completion.
  explicit CampusSim(const CampusConfig& config);

  /// Advances one epoch: one barriered parallel phase over shards — a
  /// single fused pass per shard (per slot: batched sample, classifier
  /// observe, MAC, roam/handover send, end-of-dwell staging) — then the
  /// serial tail (mailbox drain, streamed arrivals, departure fold).
  void step_epoch();

  /// Runs step_epoch() up to config.horizon_epochs.
  void run();

  const CampusConfig& config() const { return config_; }
  const CampusMap& map() const { return map_; }
  std::uint64_t epoch() const { return epoch_; }

  /// The streamed campus rollup over every departed session.
  const CampusAggregate& aggregate() const { return aggregate_; }

  // -- conservation + health counters (the soak test's invariants) ---------
  std::uint64_t arrived() const { return arrived_; }
  std::uint64_t departed() const { return departed_; }
  std::uint64_t active() const;            ///< sessions currently hosted
  std::uint64_t handovers_sent() const { return handovers_sent_; }
  std::uint64_t deferred_handovers() const;
  std::size_t mailbox_max_depth() const { return mailbox_.max_depth(); }

  /// Heap allocations observed inside the fused parallel phase since
  /// construction. Only meters when
  /// jobs == 1 (the serial soak configuration); counts only advance when
  /// the mobiwlan_alloc_hook override is linked. Slot-stable batches plus
  /// pooled sessions make this zero in steady state.
  std::uint64_t hot_phase_allocs() const;

  /// Sessions a shard currently hosts (tests assert the partition spreads).
  std::size_t shard_session_count(std::size_t shard) const {
    return shards_[shard].occupied;
  }

  /// Sessions the pool has constructed (peak concurrency high-water mark);
  /// the memory actually held is this count regardless of total arrivals.
  std::size_t pool_sessions() const { return session_pool_.constructed(); }

 private:
  struct Shard {
    // Slot-aligned with `batch`: sessions[i] owns the session whose channel
    // sits in batch slot i; a departed or handed-over slot leaves a nullptr
    // hole, and ChannelBatch's LIFO free list hands the same slot to the
    // next admission. One ChannelSample serves the whole shard: the fused
    // pass consumes each sample before taking the next, so nothing per-slot
    // is retained — at campus scale that removes megabytes of sample planes
    // from the per-epoch working set.
    std::vector<SessionPtr> sessions;
    std::vector<SessionPtr> departing;  ///< staged this epoch, folded serially
    ChannelBatch batch;
    ChannelSample sample;           ///< reused slot to slot (memory-bound!)
    ChannelBatch::Scratch scratch;  ///< one worker per shard per phase
    std::size_t occupied = 0;       ///< non-hole slots
    std::uint64_t deferred = 0;     ///< back-pressure deferrals (this shard)
    std::uint64_t hot_allocs = 0;   ///< metered only when jobs == 1
  };

  template <typename Fn>
  void for_each_shard(Fn&& body);  ///< parallel when a pool exists; barrier

  void phase_shard(std::size_t s);     // fused parallel phase for one shard
  void drain_mailbox();                // serial, fixed (dst, src) order
  void admit_arrivals();               // serial, ascending id within epoch
  void fold_departures();              // serial, ascending session id
  void place(std::size_t dst, SessionPtr sp);  // slot insert (serial phases)

  CampusConfig config_;
  CampusMap map_;
  // The pool outlives shards_ and mailbox_ (declared first, destroyed
  // last): their SessionPtrs release into it on teardown.
  SessionPool session_pool_;
  std::vector<Shard> shards_;
  HandoverMailbox<SessionPtr> mailbox_;
  std::unique_ptr<runtime::ThreadPool> pool_;  ///< null when jobs == 1

  // Streamed arrivals: one construction-time pass re-derives every id's
  // counter-based arrival draw (a pure function of (master seed, id), so
  // re-deriving is free of draw-order coupling) and buckets the ids by
  // arrival epoch, ascending within each bucket — the old sorted-schedule
  // admission order, at 8 bytes per not-yet-arrived id. Each epoch admits
  // its bucket and releases it; the dwell draw happens at admission,
  // continuing the id's substream exactly where schedule construction
  // would have.
  std::vector<std::vector<std::uint64_t>> arrival_buckets_;
  Rng arrivals_root_;
  int arrival_window_ = 1;

  // Serial-phase scratch, reused across epochs.
  ChannelBatch::Scratch prime_scratch_;
  ChannelSample prime_sample_;
  std::vector<SessionStats> departed_stats_;

  CampusAggregate aggregate_;
  std::uint64_t epoch_ = 0;
  std::uint64_t arrived_ = 0;
  std::uint64_t departed_ = 0;
  std::uint64_t handovers_sent_ = 0;
};

}  // namespace mobiwlan::campus
