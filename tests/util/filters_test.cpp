// Tests for the classifier's filter primitives: EWMA, moving average,
// per-period median aggregation, and the monotone trend window.
#include "util/filters.hpp"

#include <gtest/gtest.h>

#include <deque>

namespace mobiwlan {
namespace {

TEST(EwmaTest, FirstSamplePrimes) {
  Ewma e(0.125);
  EXPECT_FALSE(e.primed());
  e.add(4.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 4.0);
}

TEST(EwmaTest, UpdateRule) {
  Ewma e(0.25);
  e.add(0.0);
  e.add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.25);
  e.add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.25 + 0.75 * 0.25);
}

TEST(EwmaTest, HighAlphaTracksFast) {
  Ewma slow(1.0 / 16.0);
  Ewma fast(1.0 / 2.0);
  slow.add(0.0);
  fast.add(0.0);
  for (int i = 0; i < 4; ++i) {
    slow.add(1.0);
    fast.add(1.0);
  }
  EXPECT_GT(fast.value(), slow.value());
}

TEST(EwmaTest, ResetClears) {
  Ewma e(0.5);
  e.add(10.0);
  e.reset();
  EXPECT_FALSE(e.primed());
  e.add(2.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

TEST(EwmaTest, SetAlpha) {
  Ewma e(0.5);
  e.set_alpha(0.125);
  EXPECT_DOUBLE_EQ(e.alpha(), 0.125);
}

TEST(MovingAverageTest, EmptyIsZero) {
  MovingAverage m(3);
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.full());
}

TEST(MovingAverageTest, PartialWindow) {
  MovingAverage m(4);
  m.add(2.0);
  m.add(4.0);
  EXPECT_DOUBLE_EQ(m.value(), 3.0);
  EXPECT_FALSE(m.full());
}

TEST(MovingAverageTest, SlidesOldestOut) {
  MovingAverage m(2);
  m.add(1.0);
  m.add(3.0);
  m.add(5.0);
  EXPECT_TRUE(m.full());
  EXPECT_DOUBLE_EQ(m.value(), 4.0);
}

TEST(MovingAverageTest, ZeroWindowBecomesOne) {
  MovingAverage m(0);
  m.add(1.0);
  m.add(9.0);
  EXPECT_DOUBLE_EQ(m.value(), 9.0);
}

TEST(MovingAverageTest, ResetClears) {
  MovingAverage m(3);
  m.add(5.0);
  m.reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
}

TEST(MedianAggregatorTest, FlushEmptyIsNullopt) {
  MedianAggregator a;
  EXPECT_FALSE(a.flush().has_value());
}

TEST(MedianAggregatorTest, FlushReturnsMedianAndClears) {
  MedianAggregator a;
  a.add(5.0);
  a.add(1.0);
  a.add(9.0);
  EXPECT_EQ(a.pending_count(), 3u);
  const auto m = a.flush();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 5.0);
  EXPECT_EQ(a.pending_count(), 0u);
  EXPECT_FALSE(a.flush().has_value());
}

TEST(MedianAggregatorTest, MedianRobustToOutlier) {
  MedianAggregator a;
  for (double v : {10.0, 10.0, 10.0, 10.0, 1000.0}) a.add(v);
  EXPECT_DOUBLE_EQ(*a.flush(), 10.0);
}

TEST(TrendWindowTest, NotFullNoTrend) {
  TrendWindow w(4);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_FALSE(w.full());
  EXPECT_FALSE(w.increasing());
  EXPECT_FALSE(w.decreasing());
}

TEST(TrendWindowTest, StrictlyIncreasing) {
  TrendWindow w(4);
  for (double v : {1.0, 2.0, 3.0, 4.0}) w.add(v);
  EXPECT_TRUE(w.increasing());
  EXPECT_FALSE(w.decreasing());
  EXPECT_DOUBLE_EQ(w.net_change(), 3.0);
}

TEST(TrendWindowTest, StrictlyDecreasing) {
  TrendWindow w(4);
  for (double v : {4.0, 3.0, 2.0, 1.0}) w.add(v);
  EXPECT_TRUE(w.decreasing());
  EXPECT_FALSE(w.increasing());
}

TEST(TrendWindowTest, MinChangeGate) {
  TrendWindow w(3);
  for (double v : {1.0, 1.2, 1.4}) w.add(v);
  EXPECT_TRUE(w.increasing(0.3));
  EXPECT_FALSE(w.increasing(0.5));
}

TEST(TrendWindowTest, SlackAbsorbsSmallDips) {
  TrendWindow w(4, 0.5);
  for (double v : {1.0, 2.0, 1.8, 3.0}) w.add(v);  // dip of 0.2 < slack
  EXPECT_TRUE(w.increasing(1.0));
}

TEST(TrendWindowTest, LargeDipBreaksTrend) {
  TrendWindow w(4, 0.5);
  for (double v : {1.0, 2.0, 1.0, 3.0}) w.add(v);  // dip of 1.0 > slack
  EXPECT_FALSE(w.increasing());
}

TEST(TrendWindowTest, SlidesWindow) {
  TrendWindow w(3);
  for (double v : {9.0, 1.0, 2.0, 3.0}) w.add(v);  // the 9 slid out
  EXPECT_TRUE(w.increasing());
}

TEST(TrendWindowTest, FlatIsNeither) {
  TrendWindow w(3);
  for (double v : {2.0, 2.0, 2.0}) w.add(v);
  EXPECT_FALSE(w.increasing());   // net change is 0, not > 0
  EXPECT_FALSE(w.decreasing());
}

TEST(TrendWindowTest, ResetEmpties) {
  TrendWindow w(3);
  for (double v : {1.0, 2.0, 3.0}) w.add(v);
  w.reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_FALSE(w.increasing());
}

TEST(TrendWindowTest, WindowOfOneBecomesTwo) {
  TrendWindow w(1);
  w.add(1.0);
  EXPECT_FALSE(w.increasing());
  w.add(2.0);
  EXPECT_TRUE(w.increasing());
}

TEST(TrendWindowTest, WrapsAroundLikeADeque) {
  // Eleven adds into a window of 4 wrap the ring's head twice; after every
  // add the retained values, oldest first, and both trend verdicts must
  // match a plain deque holding the last four values.
  TrendWindow w(4, 0.25);
  std::deque<double> ref;
  const double values[] = {1.0, 2.0, 3.0, 4.0, 3.9, 5.0,
                           6.0, 2.0, 1.0, 0.5, 0.4};
  for (const double v : values) {
    w.add(v);
    ref.push_back(v);
    if (ref.size() > 4) ref.pop_front();
    ASSERT_EQ(w.count(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(w.value(i), ref[i]);
    bool up = ref.size() == 4, down = ref.size() == 4;
    for (std::size_t i = 1; i < ref.size(); ++i) {
      up = up && ref[i] >= ref[i - 1] - 0.25;
      down = down && ref[i] <= ref[i - 1] + 0.25;
    }
    EXPECT_EQ(w.increasing(), up && ref.back() - ref.front() > 0.0) << v;
    EXPECT_EQ(w.decreasing(), down && ref.front() - ref.back() > 0.0) << v;
  }
  EXPECT_TRUE(w.decreasing());  // the window ends at 2, 1, 0.5, 0.4
}

class TrendSlopeSweep : public ::testing::TestWithParam<double> {};

TEST_P(TrendSlopeSweep, DetectsLinearRamps) {
  const double slope = GetParam();
  TrendWindow w(4, 0.1);
  for (int i = 0; i < 4; ++i) w.add(slope * i);
  if (slope > 0.0) {
    EXPECT_TRUE(w.increasing(slope));
  } else if (slope < 0.0) {
    EXPECT_TRUE(w.decreasing(-slope));
  } else {
    EXPECT_FALSE(w.increasing());
    EXPECT_FALSE(w.decreasing());
  }
}

INSTANTIATE_TEST_SUITE_P(Slopes, TrendSlopeSweep,
                         ::testing::Values(-2.0, -0.5, 0.0, 0.5, 2.0));

}  // namespace
}  // namespace mobiwlan
