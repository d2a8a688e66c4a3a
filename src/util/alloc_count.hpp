// alloc_count.hpp — global heap-allocation counter for perf instrumentation.
//
// The counter itself lives in mobiwlan_util and is always linkable, but it
// only advances when the counting operator-new hook (the mobiwlan_alloc_hook
// object library, src/util/alloc_hook.cpp) is linked into the executable.
// Production binaries never link the hook, so they pay nothing; the perf
// bench and the zero-allocation regression test link it to observe
// allocs-per-operation on the hot paths.
#pragma once

#include <cstdint>

namespace mobiwlan {

/// Total global operator-new invocations since process start. Stays 0 when
/// the counting hook is not linked.
std::uint64_t alloc_count();

/// The calling thread's share of alloc_count(): operator-new invocations
/// made on this thread. Lets a worker meter its own section while other
/// workers allocate concurrently.
std::uint64_t thread_alloc_count();

/// True when the counting hook is linked into this executable (i.e. the
/// value of alloc_count() is meaningful).
bool alloc_hook_active();

namespace detail {
/// Implementation hooks for alloc_hook.cpp — not part of the public API.
void alloc_count_bump();
void alloc_hook_mark_active();
}  // namespace detail

}  // namespace mobiwlan
