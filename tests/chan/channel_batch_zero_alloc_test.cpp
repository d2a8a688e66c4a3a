// channel_batch_zero_alloc_test — the channel engine's allocation contract.
//
// Links the counting operator-new replacement (mobiwlan_alloc_hook) and
// asserts that once the scratch planes have grown to the working set, every
// steady-state read never touches the heap again: the link entry points,
// the slot-indexed range / CSI / ToF-sweep / roaming-scan calls, the
// classifier's per-packet step, the by-value scalar reads, and the live
// trace sources the link, latency, roaming and end-to-end loops read
// through once per frame. This is what lets those loops read the channel
// at measurement cadence without allocator traffic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"
#include "core/mobility_classifier.hpp"
#include "net/deployment.hpp"
#include "net/deployment_source.hpp"
#include "trace/source.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

using goldencase::kNumCases;

/// Runs `body(t)` 8 times to warm every buffer, then `reps` more times and
/// returns the heap allocations made by the measured reps.
template <typename Body>
std::uint64_t steady_allocs(int reps, Body body) {
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    body(t);
    t += 0.02;
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < reps; ++i) {
    body(t);
    t += 0.02;
  }
  return alloc_count() - before;
}

// -- link entry points -------------------------------------------------------

TEST(ZeroAlloc, HookIsLinked) { EXPECT_TRUE(alloc_hook_active()); }

TEST(ZeroAlloc, SampleIntoSteadyState) {
  auto ch = goldencase::make_golden_channel(7);  // macro/strong: all paths hot
  ChannelBatch::Scratch scratch;
  ChannelSample s;
  EXPECT_EQ(steady_allocs(500,
                          [&](double t) {
                            ChannelBatch::sample_link(*ch, t, s, scratch);
                          }),
            0u);
}

TEST(ZeroAlloc, CsiIntoSteadyState) {
  auto ch = goldencase::make_golden_channel(5);
  ChannelBatch::Scratch scratch;
  CsiMatrix noisy, truth;
  EXPECT_EQ(steady_allocs(500,
                          [&](double t) {
                            ChannelBatch::csi_link(*ch, t, noisy, scratch);
                            ChannelBatch::csi_true_link(*ch, t, truth, scratch);
                          }),
            0u);
}

TEST(ZeroAlloc, ClassifierCsiAndTofSteadyState) {
  auto ch = goldencase::make_golden_channel(7);
  MobilityClassifier clf;
  ChannelBatch::Scratch scratch;
  CsiMatrix csi;
  double t = 0.0;
  // Warm up past the similarity window and the ToF tracker's buffers.
  for (int i = 0; i < 400; ++i) {
    ChannelBatch::csi_link(*ch, t, csi, scratch);
    clf.on_csi(t, csi);
    clf.on_tof(t, ch->tof_cycles(t));
    t += 0.02;
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1000; ++i) {
    ChannelBatch::csi_link(*ch, t, csi, scratch);
    clf.on_csi(t, csi);
    clf.on_tof(t, ch->tof_cycles(t));
    t += 0.02;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

// The scalar by-value reads share one per-thread scratch.
TEST(ZeroAlloc, ScalarReadsSteadyState) {
  auto ch = goldencase::make_golden_channel(6);
  ChannelBatch::Scratch scratch;
  double sink = 0.0;
  EXPECT_EQ(steady_allocs(500,
                          [&](double t) {
                            sink += ch->snr_db(t) + ch->rssi_dbm(t) +
                                    ch->tof_cycles(t);
                            sink += ChannelBatch::snr_link(*ch, t, scratch) +
                                    ChannelBatch::rssi_link(*ch, t, scratch);
                          }),
            0u);
  EXPECT_NE(sink, 0.0);
}

// -- live trace sources ------------------------------------------------------

TEST(ZeroAlloc, LiveChannelSourceReadsSteadyState) {
  auto ch = goldencase::make_golden_channel(7);
  trace::LiveChannelSource src(*ch);
  CsiMatrix meas, truth;
  double sink = 0.0;
  EXPECT_EQ(steady_allocs(500,
                          [&](double t) {
                            src.csi(0, t, meas);
                            src.csi_true(0, t, truth);
                            sink += *src.rssi_dbm(0, t) + *src.snr_db(0, t) +
                                    *src.tof_cycles(0, t);
                          }),
            0u);
  EXPECT_NE(sink, 0.0);
}

TEST(ZeroAlloc, LiveDeploymentSourceReadsSteadyState) {
  Rng rng(20140204);
  auto walk = WlanDeployment::corridor_walk(rng);
  WlanDeployment wlan(WlanDeployment::corridor_layout(), walk, ChannelConfig{},
                      rng);
  LiveDeploymentSource src(wlan);
  CsiMatrix meas, truth;
  double sink = 0.0;
  EXPECT_EQ(steady_allocs(200,
                          [&](double t) {
                            for (std::uint32_t u = 0; u < src.n_units(); ++u) {
                              src.csi(u, t, meas);
                              src.csi_true(u, t, truth);
                              sink += *src.rssi_dbm(u, t) +
                                      *src.scan_rssi_dbm(u, t) +
                                      *src.snr_db(u, t) + *src.tof_cycles(u, t);
                            }
                          }),
            0u);
  EXPECT_NE(sink, 0.0);
}

// -- slot-indexed calls ------------------------------------------------------

struct BatchFixture : ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(alloc_hook_active())
        << "counting allocator not linked; test would vacuously pass";
    for (std::size_t idx = 0; idx < kNumCases; ++idx) {
      links.push_back(goldencase::make_golden_channel(idx));
      batch.add_link(links.back().get());
    }
  }

  std::vector<std::unique_ptr<WirelessChannel>> links;
  ChannelBatch batch;
  ChannelBatch::Scratch scratch;
};

TEST_F(BatchFixture, SampleRangeSteadyStateIsAllocationFree) {
  std::vector<ChannelSample> out(kNumCases);
  EXPECT_EQ(steady_allocs(32,
                          [&](double t) {
                            batch.sample_range(t, 0, kNumCases, out.data(),
                                               scratch);
                          }),
            0u);
}

TEST_F(BatchFixture, SingleLinkCsiSteadyStateIsAllocationFree) {
  CsiMatrix meas;
  CsiMatrix truth;
  std::size_t pass = 0;
  EXPECT_EQ(steady_allocs(32,
                          [&](double t) {
                            ChannelBatch::csi_link(batch.link(pass % kNumCases),
                                                   t, meas, scratch);
                            ChannelBatch::csi_true_link(
                                batch.link(pass % kNumCases), t, truth,
                                scratch);
                            ++pass;
                          }),
            0u);
}

}  // namespace
}  // namespace mobiwlan
