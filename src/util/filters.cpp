#include "util/filters.hpp"

#include <algorithm>

namespace mobiwlan {

MovingAverage::MovingAverage(std::size_t window)
    : window_(window == 0 ? 1 : window), ring_(window_) {}

void MovingAverage::add(double x) {
  sum_ += x;
  if (count_ < window_) {
    // head_ < window_ and count_ <= window_, so one conditional subtract
    // replaces the modulo (a hardware divide on the hot path).
    std::size_t idx = head_ + count_;
    if (idx >= window_) idx -= window_;
    ring_[idx] = x;
    ++count_;
  } else {
    sum_ -= ring_[head_];
    ring_[head_] = x;
    ++head_;
    if (head_ == window_) head_ = 0;
  }
}

double MovingAverage::value() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

void MovingAverage::reset() {
  head_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

std::optional<double> MedianAggregator::flush() {
  if (pending_.empty()) return std::nullopt;
  // Same arithmetic as stats.hpp's median_of, but selecting in place: the
  // buffer is about to be cleared, so there is no reason to copy it.
  const auto mid = pending_.size() / 2;
  std::nth_element(pending_.begin(), pending_.begin() + mid, pending_.end());
  double m = pending_[mid];
  if (pending_.size() % 2 == 0) {
    const auto lower = std::max_element(pending_.begin(), pending_.begin() + mid);
    m = (m + *lower) / 2.0;
  }
  pending_.clear();
  return m;
}

TrendWindow::TrendWindow(std::size_t window, double slack)
    : window_(window < 2 ? 2 : window), slack_(slack), ring_(window_) {}

void TrendWindow::add(double x) {
  if (count_ < window_) {
    std::size_t idx = head_ + count_;
    if (idx >= window_) idx -= window_;
    ring_[idx] = x;
    ++count_;
  } else {
    ring_[head_] = x;
    ++head_;
    if (head_ == window_) head_ = 0;
  }
}

bool TrendWindow::increasing(double min_change) const {
  if (count_ < window_) return false;
  for (std::size_t i = 1; i < count_; ++i) {
    if (value(i) < value(i - 1) - slack_) return false;
  }
  return net_change() > min_change;
}

bool TrendWindow::decreasing(double min_change) const {
  if (count_ < window_) return false;
  for (std::size_t i = 1; i < count_; ++i) {
    if (value(i) > value(i - 1) + slack_) return false;
  }
  return -net_change() > min_change;
}

double TrendWindow::net_change() const {
  if (count_ < 2) return 0.0;
  return value(count_ - 1) - value(0);
}

void TrendWindow::reset() {
  head_ = 0;
  count_ = 0;
}

}  // namespace mobiwlan
