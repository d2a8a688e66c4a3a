// inline_vec.hpp — a vector that keeps its first N elements inside itself.
//
// The campus keeps ~15k client sessions resident and steps each once per
// epoch. When a session's small per-link buffers (channel realization, walk
// waypoints, classifier windows, rate tables) each lived in their own heap
// block, one session step chased a dozen pointers into blocks allocated at
// unrelated times, and the pass stalled on memory. An InlineVec holds up to
// N elements in the object itself, so a pooled session is one contiguous
// slab slot; above N it moves to a single heap block, so callers with larger
// shapes (the 3x2x52 link simulators) keep working unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>

namespace mobiwlan {

/// A contiguous, growable sequence of trivially copyable T with inline
/// capacity N. Like std::vector, clear() and shrinking resize() keep the
/// capacity (inline or heap), so a refill within it never allocates.
template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec copies elements bytewise");
  static_assert(N > 0, "use std::vector for no inline capacity");

 public:
  InlineVec() = default;
  explicit InlineVec(std::size_t n, const T& value = T{}) { resize(n, value); }
  InlineVec(const InlineVec& other) { assign(other.begin(), other.end()); }
  InlineVec(InlineVec&& other) noexcept { take(other); }

  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      free_heap();
      take(other);
    }
    return *this;
  }

  ~InlineVec() { free_heap(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  /// True once the elements have moved to a heap block (size exceeded N).
  bool on_heap() const { return data_ != inline_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }

  void clear() { size_ = 0; }

  void push_back(const T& value) {
    if (size_ == cap_) regrow(2 * cap_);
    data_[size_++] = value;
  }

  void pop_back() { --size_; }

  /// Grows with copies of `value` or shrinks, keeping the capacity.
  void resize(std::size_t n, const T& value = T{}) {
    reserve(n);
    std::fill(data_ + std::min(n, size_), data_ + n, value);
    size_ = n;
  }

  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    reserve(n);
    std::copy(first, last, data_);
    size_ = n;
  }

 private:
  void regrow(std::size_t n) {
    T* fresh = std::allocator<T>().allocate(n);
    std::copy(data_, data_ + size_, fresh);
    free_heap();
    data_ = fresh;
    cap_ = n;
  }

  void free_heap() {
    if (on_heap()) std::allocator<T>().deallocate(data_, cap_);
  }

  // Leaves `other` empty on its inline storage; a heap block changes owner.
  void take(InlineVec& other) {
    if (other.on_heap()) {
      data_ = other.data_;
      cap_ = other.cap_;
    } else {
      data_ = inline_;
      cap_ = N;
      std::copy(other.data_, other.data_ + other.size_, inline_);
    }
    size_ = other.size_;
    other.data_ = other.inline_;
    other.cap_ = N;
    other.size_ = 0;
  }

  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
  T inline_[N];
};

}  // namespace mobiwlan
