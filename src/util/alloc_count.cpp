#include "util/alloc_count.hpp"

#include <atomic>

namespace mobiwlan {
namespace {

std::atomic<std::uint64_t> g_count{0};
std::atomic<bool> g_active{false};
thread_local std::uint64_t t_count = 0;

}  // namespace

std::uint64_t alloc_count() { return g_count.load(std::memory_order_relaxed); }

std::uint64_t thread_alloc_count() { return t_count; }

bool alloc_hook_active() { return g_active.load(std::memory_order_relaxed); }

namespace detail {

void alloc_count_bump() {
  g_count.fetch_add(1, std::memory_order_relaxed);
  ++t_count;
}

void alloc_hook_mark_active() {
  g_active.store(true, std::memory_order_relaxed);
}

}  // namespace detail
}  // namespace mobiwlan
