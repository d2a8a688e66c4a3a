// session_pool.hpp — slab-pooled Session storage for the campus simulator.
//
// Arrival/departure churn at campus scale (~1% of sessions per epoch) made
// the global allocator the hot path: every arrival built a Session and
// every departure tore it down. The pool keeps released Sessions
// CONSTRUCTED on a free list; a recycled arrival calls Session::reinit,
// which re-draws the state in place. A Session holds all of its buffers
// inline, so a slab slot is the session's whole memory and steady-state
// churn performs no allocation at all.
//
// CampusSim keeps one pool per shard and takes each arrival from the pool
// of the shard that will host it, so a shard's sessions are mostly
// contiguous slots of its own slabs, which its pass walks in address order.
//
// Ownership vs. residence: a session's *memory* always lives in the slab of
// the pool that created it, but its *ownership* travels — a cross-shard
// handover moves the SessionPtr through the mailbox, and the deleter
// releases the object back to its origin pool whenever the session departs,
// from whichever shard it happens to be on. Every free-list and slab
// operation — take (and so acquire) and release — runs in the simulator's
// serial phases (take before the epoch's parallel phase, fold after it), so
// the pool needs no locking. The parallel phase touches only slots already
// taken, which no shard references: an arrival build constructs a fresh
// slot or reinits a recycled one, then primes it. A fresh slot's one piece
// of pool state, its construction flag, is a byte of its own.
//
// A fresh slot is raw memory until its build runs the constructor: only
// then is it flagged constructed (so constructed() and ~SessionPool see it)
// and owned by a SessionPtr (so dropping it recycles it). A build that
// throws or never runs leaves the slot unflagged and unowned — never on the
// free list, never destroyed — as a hole at the slab's claimed prefix.
//
// Slab addresses never move (slabs are allocated once and kept), so &walk_
// aliases inside pooled sessions stay valid for the pool's lifetime. A slab
// is written only where sessions are constructed, front to back, so its
// untouched tail costs address space, not resident memory.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "campus/session.hpp"

namespace mobiwlan::campus {

class SessionPool;

/// unique_ptr deleter that returns the (still-constructed) Session to its
/// origin pool instead of destroying it.
struct PoolDeleter {
  SessionPool* pool = nullptr;
  void operator()(Session* s) const;
};

/// Owning handle to a pooled session. Moves like unique_ptr; dropping it
/// recycles the object (never frees memory).
using SessionPtr = std::unique_ptr<Session, PoolDeleter>;

class SessionPool {
 public:
  explicit SessionPool(std::size_t slab_sessions = 1024)
      : slab_sessions_(slab_sessions ? slab_sessions : 1) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  ~SessionPool() {
    for (Slab& slab : slabs_) {
      for (std::size_t i = slab.claimed; i-- > 0;)
        if (slab.built[i]) slab.data[i].~Session();
      ::operator delete(static_cast<void*>(slab.data),
                        std::align_val_t{alignof(Session)});
    }
  }

  /// One arrival's slot, from take() (serial) to build() (any thread):
  /// either a recycled session, still holding its previous occupant, or a
  /// fresh slab slot that holds no object yet.
  class Taken {
   public:
    /// Makes the slot Session{id, master_seed, map, params, arrival_epoch,
    /// dwell_epochs}: reinit of a recycled session, placement construction
    /// in a fresh slot, which only then is flagged constructed and owned.
    /// If the constructor throws, the slot stays unbuilt. Distinct Takens
    /// build concurrently; a recycled build and, at the default dwell, a
    /// fresh one make no heap allocation (take grew the recycled buffers).
    /// master_seed/map/params must be the same for every slot of one pool.
    Session& build(std::uint64_t id, std::uint64_t master_seed,
                   const CampusMap& map, const SessionParams& params,
                   std::uint64_t arrival_epoch, std::uint64_t dwell_epochs) {
      if (slot_ == nullptr) {
        session_->reinit(id, arrival_epoch, dwell_epochs);
      } else {
        Session* s = new (slot_) Session(id, master_seed, map, params,
                                         arrival_epoch, dwell_epochs);
        *built_ = true;
        slot_ = nullptr;
        session_.reset(s);
      }
      return *session_;
    }

    /// The slot's session: a recycled slot's previous occupant until
    /// build(); null for a fresh slot until build() constructs it.
    Session* get() const { return session_.get(); }

    /// Hands the built session over; the Taken holds nothing afterwards.
    SessionPtr release() { return std::move(session_); }

   private:
    friend class SessionPool;
    SessionPtr session_;       ///< its deleter names the pool from take() on
    Session* slot_ = nullptr;  ///< fresh: the unbuilt slot, owned by nobody
    bool* built_ = nullptr;    ///< fresh: the slot's construction flag
  };

  /// The serial half of acquire(): pops the free list (LIFO) or claims the
  /// next slab slot, constructing nothing. A recycled session's buffers
  /// are grown here for `dwell_epochs`, so its build can run on any thread
  /// without touching the heap.
  Taken take(std::uint64_t dwell_epochs) {
    Taken t;
    t.session_ = SessionPtr{nullptr, PoolDeleter{this}};
    if (!free_.empty()) {
      t.session_.reset(free_.back());
      free_.pop_back();
      t.session_->reserve(dwell_epochs);
      return t;
    }
    if (slabs_.empty() || slabs_.back().claimed == slab_sessions_) {
      Slab slab;
      slab.data = static_cast<Session*>(
          ::operator new(sizeof(Session) * slab_sessions_,
                         std::align_val_t{alignof(Session)}));
      slab.built = std::make_unique<bool[]>(slab_sessions_);
      slabs_.push_back(std::move(slab));
    }
    Slab& slab = slabs_.back();
    t.slot_ = slab.data + slab.claimed;
    t.built_ = &slab.built[slab.claimed];
    ++slab.claimed;
    return t;
  }

  /// Hands out a session initialized exactly as Session{id, master_seed,
  /// map, params, arrival_epoch, dwell_epochs}: take() then build().
  SessionPtr acquire(std::uint64_t id, std::uint64_t master_seed,
                     const CampusMap& map, const SessionParams& params,
                     std::uint64_t arrival_epoch, std::uint64_t dwell_epochs) {
    Taken t = take(dwell_epochs);
    t.build(id, master_seed, map, params, arrival_epoch, dwell_epochs);
    return t.release();
  }

  /// Returns a session to the free list. The object stays constructed; its
  /// buffers keep their capacity for the next acquire.
  void release(Session* s) { free_.push_back(s); }

  /// Sessions currently constructed (free or handed out); a taken fresh
  /// slot counts once its build has run the constructor.
  std::size_t constructed() const {
    std::size_t n = 0;
    for (const Slab& slab : slabs_)
      for (std::size_t i = 0; i < slab.claimed; ++i) n += slab.built[i];
    return n;
  }

  /// Sessions on the free list awaiting reuse.
  std::size_t free_count() const { return free_.size(); }

 private:
  struct Slab {
    Session* data = nullptr;
    std::size_t claimed = 0;  ///< prefix [0, claimed) has been taken fresh
    std::unique_ptr<bool[]> built;  ///< per slot: holds a constructed object
  };

  std::size_t slab_sessions_;
  std::vector<Slab> slabs_;
  std::vector<Session*> free_;
};

inline void PoolDeleter::operator()(Session* s) const {
  if (s != nullptr && pool != nullptr) pool->release(s);
}

}  // namespace mobiwlan::campus
