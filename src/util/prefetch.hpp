// prefetch.hpp — software prefetch hints.
//
// A caller that visits objects in an order the hardware prefetchers cannot
// predict can issue the next object's loads one iteration ahead, so its
// misses overlap the current object's compute (Session::prefetch,
// WirelessChannel::prefetch). The campus pass itself no longer needs it:
// it walks inline sessions in address order. Prefetches never change
// observable state, so every use is digest-neutral by construction.
#pragma once

#include <cstddef>

namespace mobiwlan {

/// Prefetches the cache lines covering [p, p + bytes). `for_write` hints
/// exclusive ownership (the lines are about to be mutated). A null p or
/// zero bytes is a no-op; on non-GNU toolchains the whole call is.
inline void prefetch_lines(const void* p, std::size_t bytes,
                           bool for_write = false) {
#if defined(__GNUC__) || defined(__clang__)
  if (p == nullptr) return;
  const char* c = static_cast<const char*>(p);
  if (for_write) {
    for (std::size_t off = 0; off < bytes; off += 64)
      __builtin_prefetch(c + off, 1, 3);
  } else {
    for (std::size_t off = 0; off < bytes; off += 64)
      __builtin_prefetch(c + off, 0, 3);
  }
#else
  (void)p;
  (void)bytes;
  (void)for_write;
#endif
}

}  // namespace mobiwlan
