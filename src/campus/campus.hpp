// campus.hpp — campus-scale sharded deployment with live client churn.
//
// CampusSim runs thousands of APs partitioned into shards. Each shard steps
// the sessions it currently hosts through the channel engine's link entry
// point; client sessions arrive by a seeded process, walk between shards,
// and depart, folding their statistics into a streamed aggregate
// (stats_stream.hpp) — per-session records are never materialized.
// Cross-shard handover travels through the bounded lock-free
// HandoverMailbox (mailbox.hpp).
//
// Scale mechanics (DESIGN.md §8): each shard has its own slab pool
// (session_pool.hpp); a session holds every buffer inline, so it is one
// slab slot, taken from the pool of the shard that will host it and
// recycled across arrivals without touching the global allocator. Each
// shard keeps its sessions in ascending address order, so its pass walks
// its slabs forward. Arrivals are streamed from their counter-based RNG
// substreams instead of a materialized schedule (O(not-yet-arrived) ids, a
// single 8-byte word each, instead of a sorted 24-byte-per-session vector).
//
// Determinism contract (the property the shard-invariance suite gates):
// every per-session observable — and therefore the campus aggregate — is
// bitwise identical for any shard count and any worker count. Three
// mechanisms carry the proof:
//
//   1. Session state is a pure function of (master seed, session id, time):
//      all randomness comes from counter-derived Rng substreams keyed by
//      the session id, never by the hosting shard or worker (session.hpp).
//      The order a shard visits its sessions in — their addresses — is
//      therefore irrelevant to the bits any session computes.
//   2. Epochs are barriered: one parallel phase per epoch runs every
//      shard's fused pass (stage departures, sample + step, roam +
//      handover send) with no cross-shard communication except SPSC
//      mailbox lanes written by their owning source shard. The same phase
//      builds every arrival of the epoch (construction in a fresh slab
//      slot or reinit of a recycled session, then prime, in fixed-size
//      chunks), which is order-free: a session's construction and prime
//      are a pure function of (seed, id, epoch, dwell), a taken slot is
//      referenced by no shard, and the map and session params are
//      read-only. The phase ends at one ThreadPool::parallel_for barrier.
//      Everything order-sensitive runs serially in fixed order: before the
//      phase, the arrival take (dwell draw, arrival_pool choice and slot
//      claim per id, ascending id); after the barrier, mailbox drain in
//      (dst, src) order, arrival placement in bucket order, the
//      address-order merge of each shard's newcomers, and the departure
//      fold in session-id order. Worker count can change who executes a
//      work item, never what it computes.
//   3. Handover moves the Session object wholesale — classifier
//      hold-then-decay state, rate-adaptation state, channel RNG and all —
//      so hosting is invisible. A handover deferred by mailbox back-pressure
//      just steps one more epoch in the source shard, which by (1) computes
//      the same observables the destination would have.
#pragma once

#include <array>
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
#include "mac/aggregation.hpp"
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
    kArrivalWindowTooLong,  ///< arrival_window_epochs > INT_MAX: the
                            ///< arrival draw is an int
    kBadExtraDwell,      ///< mean_extra_dwell_epochs negative or non-finite
    kDwellRangeInverted,  ///< min_dwell_epochs > max_dwell_epochs
    kBadPitch,           ///< pitch_m not finite and > 0
    kBadTick,            ///< session.tick_s not finite and > 0
    kBadChannelShape,    ///< session.channel n_tx, n_rx or n_subcarriers
                         ///< is 0: the sessions would report empty CSI
    kBadMacExchange,     ///< session.mpdus_per_exchange,
                         ///< mpdus_while_probing or mpdu_payload_bytes < 1:
                         ///< an empty exchange's goodput is 0/0, and an
                         ///< empty payload never loses an MPDU
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

  /// Advances one epoch: the serial take of the epoch's arrivals, then one
  /// barriered parallel phase — a single fused pass per shard (per
  /// session: sample, classifier observe, MAC, roam/handover send,
  /// end-of-dwell staging) beside the arrivals' builds — then the serial
  /// tail (mailbox drain, arrival placement, departure fold).
  void step_epoch();

  /// Runs step_epoch() up to config.horizon_epochs.
  void run();

  const CampusConfig& config() const { return config_; }
  const CampusMap& map() const { return map_; }

  /// The PER grid every session's MAC step decides its losses against:
  /// PerGrid::shared of session.mpdu_payload_bytes and the default error
  /// model. Rows are built by the shard passes on first use and outlive
  /// the campus.
  const PerGrid& per_grid() const { return per_grid_; }
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

  /// Heap allocations observed inside the fused shard passes since
  /// construction, metered per worker thread, so at any worker count
  /// (arrival builds share the phase but not the meter). Counts only
  /// advance when the mobiwlan_alloc_hook override is linked. Inline
  /// sessions, pre-warmed scratch and serially reserved shard vectors make
  /// this zero.
  std::uint64_t hot_phase_allocs() const;

  /// Heap allocations observed inside the arrival builds (construction or
  /// reinit, then prime) since construction, metered per worker slot like
  /// hot_phase_allocs(). Zero at the default dwell range: a session's walk
  /// only leaves its inline storage for longer dwells.
  std::uint64_t arrival_build_allocs() const;

  /// Sessions a shard currently hosts (tests assert the partition spreads).
  std::size_t shard_session_count(std::size_t shard) const {
    return shards_[shard].sessions.size();
  }

  /// Sessions the pools have constructed (peak concurrency high-water
  /// mark); the memory actually held is this count regardless of total
  /// arrivals. Shard-invariant: see arrival_pool().
  std::size_t pool_sessions() const;

 private:
  struct Shard {
    // Hosted sessions in ascending address order, so the fused pass walks
    // this shard's slabs forward and the hardware prefetchers stream them.
    // One tile of ChannelSamples serves the whole shard: the fused pass
    // consumes a tile's samples before sampling the next tile, so nothing
    // per-session is retained.
    std::vector<SessionPtr> sessions;
    std::vector<SessionPtr> incoming;   ///< placed this tail, merged at its end
    std::vector<SessionPtr> departing;  ///< staged this epoch, folded serially
    std::array<ChannelSample, ChannelBatch::kTile> samples;  ///< tile to tile
    ChannelBatch::Scratch scratch;  ///< one worker per shard per phase
    std::uint64_t deferred = 0;     ///< back-pressure deferrals (this shard)
    std::uint64_t hot_allocs = 0;   ///< this shard's passes, any worker
  };

  // One worker slot's scratch for arrival builds (parallel_for's dense
  // slot index; slot 0 is the calling thread). Line-aligned: slots are
  // written by different workers.
  struct alignas(64) BuildSlot {
    ChannelBatch::Scratch scratch;
    ChannelSample sample;
    std::uint64_t allocs = 0;  ///< this slot's builds, any epoch
  };

  // One arrival of the current epoch, from take (serial, before the phase)
  // through build (parallel) to placement (serial).
  struct Arrival {
    SessionPool::Taken taken;
    std::uint64_t id = 0;
    std::uint64_t dwell = 0;
  };

  /// Arrivals per build work item: ~150 us of build + prime, far above a
  /// parallel_for claim, while the default campus's ~1250 arrivals per
  /// epoch still split into ~40 items that fill shard imbalance.
  static constexpr std::size_t kArrivalChunk = 32;

  void take_arrivals();  // serial: dwell draw + slot claim, ascending id
  SessionPool& arrival_pool(std::size_t dst);  // serial, in take_arrivals
  void phase_shard(std::size_t s);     // fused parallel pass for one shard
  void build_arrivals(std::size_t chunk, BuildSlot& slot);  // parallel
  void drain_mailbox();                // serial, fixed (dst, src) order
  void place_arrivals();               // serial, bucket order
  void merge_incoming();               // serial, per shard
  void fold_departures();              // serial, ascending session id
  void place(std::size_t dst, SessionPtr sp);  // stage (serial phases)

  CampusConfig config_;
  CampusMap map_;
  const PerGrid& per_grid_;  ///< read-only to every shard pass
  // One pool per shard. The pools outlive shards_, mailbox_ and pending_
  // (declared first, destroyed last): their SessionPtrs release into them
  // on teardown. Never resized, so PoolDeleter's pool pointers stay valid.
  std::vector<SessionPool> pools_;
  std::vector<Shard> shards_;
  HandoverMailbox<SessionPtr> mailbox_;
  std::unique_ptr<runtime::ThreadPool> pool_;  ///< null when jobs == 1

  // Streamed arrivals: one construction-time pass re-derives every id's
  // counter-based arrival draw (a pure function of (master seed, id), so
  // re-deriving is free of draw-order coupling) and buckets the ids by
  // arrival epoch, ascending within each bucket — the old sorted-schedule
  // admission order, at 8 bytes per not-yet-arrived id. Each epoch takes
  // its bucket and releases it; the dwell draw happens at take,
  // continuing the id's substream exactly where schedule construction
  // would have.
  std::vector<std::vector<std::uint64_t>> arrival_buckets_;
  Rng arrivals_root_;
  int arrival_window_ = 1;
  std::vector<Arrival> pending_;  ///< this epoch's; reserved to max bucket

  std::vector<BuildSlot> build_slots_;  ///< one per worker slot, pre-warmed
  std::vector<SessionStats> departed_stats_;  ///< fold scratch

  CampusAggregate aggregate_;
  std::uint64_t epoch_ = 0;
  std::uint64_t arrived_ = 0;
  std::uint64_t departed_ = 0;
  std::uint64_t handovers_sent_ = 0;
};

}  // namespace mobiwlan::campus
