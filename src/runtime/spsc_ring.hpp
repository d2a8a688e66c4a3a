// spsc_ring.hpp — bounded wait-free single-producer/single-consumer ring.
//
// The concurrency primitive under the campus handover mailbox
// (src/campus/mailbox.hpp): a classic Lamport queue where the producer owns
// the tail, the consumer owns the head, and one release/acquire pair per
// operation is the entire synchronization story. It lives in runtime/ next
// to the thread pool because it is the second half of the epoch-barrier
// discipline: within a parallel phase the rings carry messages between
// workers without locks, and the barrier at the end of the phase
// (ThreadPool::parallel_for returning) provides the cross-phase
// happens-before for everything the rings don't.
//
// Capacity is a hard bound: try_push on a full ring fails instead of
// blocking, so back-pressure surfaces as a boolean the caller must handle,
// never as a deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace mobiwlan::runtime {

/// Exactly one thread may call try_push and one thread may call try_pop at
/// any time (they may be different threads, unsynchronized). Capacity is
/// rounded up to a power of two; the ring never allocates after
/// construction.
template <typename T>
class SpscRing {
 public:
  // Slots are raw storage: a slot holds a T only from its push to its pop,
  // so construction touches no slot memory. A 16-shard campus mailbox is
  // 256 lanes of 1024 slots (4 MB), almost none of which ever hold a
  // message.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::allocator<T>().allocate(cap);
    mask_ = cap - 1;
  }

  ~SpscRing() {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = head_.load(std::memory_order_relaxed); i != tail;
         ++i)
      std::destroy_at(slots_ + (i & mask_));
    std::allocator<T>().deallocate(slots_, capacity());
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. The value is moved only on success; on a full ring the
  /// caller keeps it and decides what back-pressure means.
  bool try_push(T& v) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= capacity())
      return false;  // full
    std::construct_at(slots_ + (tail & mask_), std::move(v));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;  // empty
    T* slot = slots_ + (head & mask_);
    out = std::move(*slot);
    std::destroy_at(slot);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot occupancy. Exact when the producer is quiescent (the
  /// epoch-barrier case); a conservative estimate mid-traffic.
  std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  T* slots_ = nullptr;  // capacity() slots; live ones are [head_, tail_)
  std::size_t mask_ = 0;
  // Head and tail on separate cache lines so the producer's stores never
  // invalidate the consumer's line (and vice versa).
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
};

}  // namespace mobiwlan::runtime
