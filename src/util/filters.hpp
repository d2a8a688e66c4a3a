// filters.hpp — windowed filters used by the mobility-classification pipeline.
//
// The paper's ToF pipeline (§2.4) samples ToF every 20 ms, aggregates each
// second with a median filter, and then looks for a monotone trend across a
// few seconds of medians. The CSI pipeline maintains a moving average of
// similarity values. These small value-semantic classes implement exactly
// those primitives.
#pragma once

#include <cstddef>
#include <optional>

#include "util/inline_vec.hpp"

namespace mobiwlan {

/// Exponentially-weighted moving average: v <- alpha*x + (1-alpha)*v.
///
/// This is the Atheros PER low-pass filter from §4.1 (default alpha = 1/8);
/// the mobility-aware RA re-parameterizes alpha per mobility mode.
class Ewma {
 public:
  explicit Ewma(double alpha, double initial = 0.0)
      : alpha_(alpha), value_(initial) {}

  void add(double x) {
    if (!primed_) {
      value_ = x;
      primed_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  double value() const { return value_; }
  bool primed() const { return primed_; }
  double alpha() const { return alpha_; }
  void set_alpha(double alpha) { alpha_ = alpha; }
  void reset(double initial = 0.0) {
    value_ = initial;
    primed_ = false;
  }

 private:
  double alpha_;
  double value_;
  bool primed_ = false;
};

/// Fixed-capacity moving average over the last `window` samples.
///
/// Backed by a ring buffer sized at construction: add() never allocates, so
/// the per-packet similarity pipeline that feeds it stays allocation-free (a
/// deque-backed window allocates a fresh block every ~64 pushes). Windows up
/// to 8 (the classifier's default is 5) live inside the object.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);

  void add(double x);
  /// Mean of the retained samples; 0 when empty.
  double value() const;
  std::size_t count() const { return count_; }
  bool full() const { return count_ == window_; }
  void reset();

 private:
  std::size_t window_;
  InlineVec<double, 8> ring_;  // size fixed at window_
  std::size_t head_ = 0;      // index of the oldest retained sample
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

/// Collects samples and emits their median when asked, then clears.
///
/// Models the per-second median aggregation of raw 20 ms ToF readings.
/// flush() selects the median in place (the buffer is discarded anyway), so
/// after the first full period the aggregator stops allocating. Up to 4
/// pending readings — a campus session's one reading per 0.5 s tick — live
/// inside the object; a 20 ms feed moves them to a heap block in its first
/// period.
class MedianAggregator {
 public:
  void add(double x) { pending_.push_back(x); }
  std::size_t pending_count() const { return pending_.size(); }

  /// Median of the pending samples, or nullopt if none; clears the buffer.
  std::optional<double> flush();

  /// Drops pending samples, keeping the buffer capacity.
  void clear() { pending_.clear(); }

 private:
  InlineVec<double, 4> pending_;
};

/// Sliding window of the most recent `window` values with trend queries.
///
/// "Only if all the ToF values in the moving window suggest an increasing or
/// decreasing trend, we declare that the client is under macro-mobility."
/// Windows up to 4 (the tracker's default) live inside the object.
class TrendWindow {
 public:
  /// `window` is the number of retained values; `slack` allows each
  /// consecutive pair to move against the trend by at most this much
  /// (absorbs quantization plateaus in clock-cycle ToF values).
  explicit TrendWindow(std::size_t window, double slack = 0.0);

  void add(double x);
  bool full() const { return count_ == window_; }
  std::size_t count() const { return count_; }

  /// True if the window is full and values are non-decreasing (within slack)
  /// with a strictly positive overall rise greater than `min_change`.
  bool increasing(double min_change = 0.0) const;
  /// Mirror image of increasing().
  bool decreasing(double min_change = 0.0) const;
  /// Total change last - first (0 if fewer than 2 values).
  double net_change() const;
  void reset();

  /// i-th retained value, oldest first (i < count()).
  double value(std::size_t i) const {
    // head_ < window_ and i < window_, so one conditional subtract replaces
    // the modulo (a hardware divide on the hot path), as in MovingAverage.
    std::size_t idx = head_ + i;
    if (idx >= window_) idx -= window_;
    return ring_[idx];
  }

 private:
  std::size_t window_;
  double slack_;
  InlineVec<double, 4> ring_;  // size fixed at window_; add() never allocates
  std::size_t head_ = 0;      // index of the oldest retained value
  std::size_t count_ = 0;
};

}  // namespace mobiwlan
