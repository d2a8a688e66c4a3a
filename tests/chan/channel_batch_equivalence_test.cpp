// channel_batch_equivalence_test — slot-indexed calls vs link entry points.
//
// Every read of a link runs through the same ChannelBatch kernels, whether
// it comes from a range call over registered slots or from a link entry
// point on an unregistered channel. Both sides below are identical
// realizations drawing from their own RNG state, so lockstep call sequences
// must agree bitwise: every CSI element, every RSSI / SNR / ToF reading.
// CMake re-runs this binary under MOBIWLAN_FORCE_SCALAR=1 and each forced
// SIMD tier; both sides resolve the same tier, so the contract holds on
// every one.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"

namespace mobiwlan {
namespace {

using goldencase::kNumCases;
using goldencase::make_golden_channel;

/// Two independent, identical realizations of the 8 golden channels: one
/// registered with a batch, one read through the link entry points.
struct GoldenPair {
  std::vector<std::unique_ptr<WirelessChannel>> batch_links;
  std::vector<std::unique_ptr<WirelessChannel>> ref_links;
  ChannelBatch batch;

  GoldenPair() {
    for (std::size_t idx = 0; idx < kNumCases; ++idx) {
      batch_links.push_back(make_golden_channel(idx));
      ref_links.push_back(make_golden_channel(idx));
      batch.add_link(batch_links.back().get());
    }
  }
};

void expect_csi_equal(const CsiMatrix& got, const CsiMatrix& want,
                      const char* what, std::size_t link) {
  ASSERT_EQ(got.raw().size(), want.raw().size());
  for (std::size_t k = 0; k < want.raw().size(); ++k)
    EXPECT_EQ(got.raw()[k], want.raw()[k])
        << what << " link " << link << " element " << k;
}

void expect_sample_equal(const ChannelSample& got, const ChannelSample& want,
                         std::size_t link) {
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.rssi_dbm, want.rssi_dbm);
  EXPECT_EQ(got.snr_db, want.snr_db);
  EXPECT_EQ(got.tof_cycles, want.tof_cycles);
  EXPECT_EQ(got.true_distance_m, want.true_distance_m);
  expect_csi_equal(got.csi, want.csi, "sample", link);
}

TEST(ChannelBatchEquivalence, SampleRangeMatchesPerLinkLoop) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  ChannelBatch::Scratch ref_scratch;
  std::vector<ChannelSample> out(kNumCases);
  ChannelSample ref;

  for (const double t : {0.0, 0.25, 0.5, 1.0, 2.0, 3.5}) {
    g.batch.sample_range(t, 0, kNumCases, out.data(), scratch);
    for (std::size_t i = 0; i < kNumCases; ++i) {
      ChannelBatch::sample_link(*g.ref_links[i], t, ref, ref_scratch);
      SCOPED_TRACE(::testing::Message()
                   << goldencase::case_name(i) << " at t=" << t);
      expect_sample_equal(out[i], ref, i);
    }
  }
}

TEST(ChannelBatchEquivalence, SubrangeSamplingMatches) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  ChannelBatch::Scratch ref_scratch;
  std::vector<ChannelSample> out(kNumCases);
  ChannelSample ref;

  // Two disjoint ranges cover the batch; the per-link results must not
  // depend on how the caller chunks the range (the sharding contract).
  g.batch.sample_range(1.0, 0, 3, out.data(), scratch);
  g.batch.sample_range(1.0, 3, kNumCases, out.data(), scratch);
  for (std::size_t i = 0; i < kNumCases; ++i) {
    ChannelBatch::sample_link(*g.ref_links[i], 1.0, ref, ref_scratch);
    SCOPED_TRACE(goldencase::case_name(i));
    expect_sample_equal(out[i], ref, i);
  }
}

TEST(ChannelBatchEquivalence, MeasuredAndTrueCsiMatch) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  ChannelBatch::Scratch ref_scratch;
  CsiMatrix got;
  CsiMatrix want;

  for (std::size_t i = 0; i < kNumCases; ++i) {
    SCOPED_TRACE(goldencase::case_name(i));
    g.batch.csi_into(i, 0.75, got, scratch);
    ChannelBatch::csi_link(*g.ref_links[i], 0.75, want, ref_scratch);
    expect_csi_equal(got, want, "csi_into", i);

    g.batch.csi_true_into(i, 2.0, got, scratch);
    ChannelBatch::csi_true_link(*g.ref_links[i], 2.0, want, ref_scratch);
    expect_csi_equal(got, want, "csi_true_into", i);

    // The by-value reads forward to the same entry points.
    expect_csi_equal(g.batch_links[i]->csi_true(2.0), want, "csi_true", i);
    EXPECT_EQ(g.batch_links[i]->snr_db(2.0),
              ChannelBatch::snr_link(*g.ref_links[i], 2.0, ref_scratch));
  }
}

TEST(ChannelBatchEquivalence, TofSweepMatchesPerLinkReadings) {
  GoldenPair g;
  std::vector<double> sweep(kNumCases);
  for (const double t : {0.5, 1.5}) {
    g.batch.tof_all(t, sweep.data());
    for (std::size_t i = 0; i < kNumCases; ++i) {
      SCOPED_TRACE(goldencase::case_name(i));
      EXPECT_EQ(sweep[i], g.ref_links[i]->tof_cycles(t));
    }
  }
}

TEST(ChannelBatchEquivalence, RssiAllMatchesLinkReads) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  ChannelBatch::Scratch ref_scratch;
  for (const double t : {0.0, 1.0, 4.0}) {
    g.batch.rssi_all(t, scratch);
    ASSERT_EQ(scratch.rssi.size(), kNumCases);
    for (std::size_t i = 0; i < kNumCases; ++i) {
      SCOPED_TRACE(goldencase::case_name(i));
      EXPECT_EQ(scratch.rssi[i],
                ChannelBatch::rssi_link(*g.ref_links[i], t, ref_scratch));
    }
  }
}

TEST(ChannelBatchEquivalence, StrongestLinkMatchesArgmaxScan) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  ChannelBatch::Scratch ref_scratch;
  for (const double t : {0.0, 1.0, 4.0}) {
    const std::size_t got = g.batch.strongest_link(t, scratch);
    std::size_t want = 0;
    double best = -1e9;
    for (std::size_t i = 0; i < kNumCases; ++i) {
      const double rssi =
          ChannelBatch::rssi_link(*g.ref_links[i], t, ref_scratch);
      if (rssi > best) {
        best = rssi;
        want = i;
      }
    }
    EXPECT_EQ(got, want) << "t=" << t;
  }
}

}  // namespace
}  // namespace mobiwlan
