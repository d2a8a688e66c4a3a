#include "core/tof_tracker.hpp"

#include <cstdint>

namespace mobiwlan {

TofTracker::TofTracker(Config config)
    : config_(config), window_(config.trend_window, config.slack_cycles) {}

void TofTracker::add(double t, double tof_cycles) {
  if (!epoch_open_) {
    epoch_start_ = t;
    epoch_open_ = true;
  }
  // Close out the elapsed aggregation periods in O(1): a reading may arrive
  // an arbitrary gap after the previous one (dropped or delayed ToF exports),
  // and iterating period-by-period would cost O(gap/period).
  //
  // Gap semantics: the trend window holds *consecutive* per-second medians.
  // If more than one period elapsed, the seconds in between produced no
  // median, so whatever pending samples we aggregate are not adjacent to the
  // window's existing entries — the window restarts rather than pretending
  // the gap never happened. `last_median_` still records the flushed value
  // (it is a "latest measurement" for diagnostics, not trend evidence).
  const double elapsed = t - epoch_start_;
  if (elapsed >= config_.aggregation_period_s) {
    const auto periods =
        static_cast<std::uint64_t>(elapsed / config_.aggregation_period_s);
    if (auto median = aggregator_.flush()) {
      last_median_ = *median;
      ++median_count_;
      if (periods == 1) window_.add(*median);
    }
    if (periods > 1) window_.reset();
    epoch_start_ += static_cast<double>(periods) * config_.aggregation_period_s;
  }
  aggregator_.add(tof_cycles);
}

TofTrend TofTracker::trend() const {
  if (window_.increasing(config_.min_change_cycles)) return TofTrend::kIncreasing;
  if (window_.decreasing(config_.min_change_cycles)) return TofTrend::kDecreasing;
  return TofTrend::kNone;
}

void TofTracker::reset() {
  aggregator_.clear();  // keeps capacity: reset never re-allocates
  window_.reset();
  epoch_open_ = false;
  last_median_.reset();
  median_count_ = 0;
}

}  // namespace mobiwlan
