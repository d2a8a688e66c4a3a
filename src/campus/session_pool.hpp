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
// the pool needs no locking. The parallel phase only dereferences stable
// pointers: shards step the sessions they host, and arrival builds
// reinit + prime sessions already taken, which no shard references.
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
      for (std::size_t i = slab.constructed; i-- > 0;) slab.data[i].~Session();
      ::operator delete(static_cast<void*>(slab.data),
                        std::align_val_t{alignof(Session)});
    }
  }

  /// A slot taken for one arrival. `stale` is false for a fresh slot,
  /// constructed by take() and ready; true for a recycled one, which still
  /// holds its previous occupant until the caller runs
  /// `session->reinit(id, arrival_epoch, dwell_epochs)`.
  struct Taken {
    SessionPtr session;
    bool stale = false;
  };

  /// The serial half of acquire(): pops the free list (LIFO) or constructs
  /// Session{id, master_seed, map, params, arrival_epoch, dwell_epochs} in
  /// the next slab slot. A recycled session's buffers are grown here for
  /// `dwell_epochs`, so its reinit + prime can run on any thread without
  /// touching the heap. master_seed/map/params must be the same on every
  /// call (one campus).
  Taken take(std::uint64_t id, std::uint64_t master_seed, const CampusMap& map,
             const SessionParams& params, std::uint64_t arrival_epoch,
             std::uint64_t dwell_epochs) {
    if (!free_.empty()) {
      Session* s = free_.back();
      free_.pop_back();
      s->reserve(dwell_epochs);
      return {SessionPtr{s, PoolDeleter{this}}, true};
    }
    if (slabs_.empty() || slabs_.back().constructed == slab_sessions_) {
      Slab slab;
      slab.data = static_cast<Session*>(
          ::operator new(sizeof(Session) * slab_sessions_,
                         std::align_val_t{alignof(Session)}));
      slabs_.push_back(slab);
    }
    Slab& slab = slabs_.back();
    Session* s = new (slab.data + slab.constructed)
        Session(id, master_seed, map, params, arrival_epoch, dwell_epochs);
    ++slab.constructed;
    return {SessionPtr{s, PoolDeleter{this}}, false};
  }

  /// Hands out a session initialized exactly as Session{id, master_seed,
  /// map, params, arrival_epoch, dwell_epochs}: take() plus, for a recycled
  /// slot, the in-place reinit (allocation-free).
  SessionPtr acquire(std::uint64_t id, std::uint64_t master_seed,
                     const CampusMap& map, const SessionParams& params,
                     std::uint64_t arrival_epoch, std::uint64_t dwell_epochs) {
    Taken t = take(id, master_seed, map, params, arrival_epoch, dwell_epochs);
    if (t.stale) t.session->reinit(id, arrival_epoch, dwell_epochs);
    return std::move(t.session);
  }

  /// Returns a session to the free list. The object stays constructed; its
  /// buffers keep their capacity for the next acquire.
  void release(Session* s) { free_.push_back(s); }

  /// Sessions currently constructed (free or handed out).
  std::size_t constructed() const {
    std::size_t n = 0;
    for (const Slab& slab : slabs_) n += slab.constructed;
    return n;
  }

  /// Sessions on the free list awaiting reuse.
  std::size_t free_count() const { return free_.size(); }

 private:
  struct Slab {
    Session* data = nullptr;
    std::size_t constructed = 0;  ///< prefix [0, constructed) holds objects
  };

  std::size_t slab_sessions_;
  std::vector<Slab> slabs_;
  std::vector<Session*> free_;
};

inline void PoolDeleter::operator()(Session* s) const {
  if (s != nullptr && pool != nullptr) pool->release(s);
}

}  // namespace mobiwlan::campus
