// channel_batch_equivalence_test — slot-indexed calls vs link entry points.
//
// Every read of a link runs through the same ChannelBatch kernels, whether
// it comes from a range call over registered slots or from a link entry
// point on an unregistered channel. Both sides below are identical
// realizations drawing from their own RNG state, so lockstep call sequences
// must agree bitwise: every CSI element, every RSSI / SNR / ToF reading.
// CMake re-runs this binary under each forced SIMD tier (scalar, avx2,
// avx512); both sides resolve the same tier, so the contract holds on
// every one.
#include <gtest/gtest.h>

#include <cmath>
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
    ChannelBatch::csi_link(g.batch.link(i), 0.75, got, scratch);
    ChannelBatch::csi_link(*g.ref_links[i], 0.75, want, ref_scratch);
    expect_csi_equal(got, want, "csi_link", i);

    ChannelBatch::csi_true_link(g.batch.link(i), 2.0, got, scratch);
    ChannelBatch::csi_true_link(*g.ref_links[i], 2.0, want, ref_scratch);
    expect_csi_equal(got, want, "csi_true_link", i);

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

TEST(ChannelBatchEquivalence, WideArgumentGeometryPinned) {
  // At t = 3e6 s and 1e7 s the strong-activity movers' pacing phases
  // 2*pi*f*t (f >= 0.06 Hz) exceed fastmath::kSincosWideMaxArg, so the
  // geometry stage takes its wide-argument sincos. SNR and a few noiseless
  // CSI entries, pinned to 1e-12 relative (captured from the original
  // dedicated wide-argument geometry pass).
  struct Pin {
    std::size_t idx;
    double t;
    double snr_db;
    double re[4];
    double im[4];
  };
  constexpr std::size_t kEntries[4] = {0, 37, 150, 311};
  const Pin pins[] = {
      {3, 3e6, 23.856597479409999,
       {-2.7851103289788758e-05, -0.00054416280522690094,
        -0.0001692397404286273, 0.00058676068218331621},
       {9.2859215649798447e-05, 0.00028426754523372817,
        -0.00018370080761412623, 0.00023940150539236205}},
      {3, 1e7, 25.753455945619521,
       {0.00020949312200847661, -0.00077216065159268013,
        9.7450937262870855e-05, 0.00072954946879204817},
       {0.00028743972758592132, 0.0002210636886115501,
        -0.00015367901220183271, -2.2771015260502042e-05}},
      {5, 3e6, 25.933377414329257,
       {-0.0001167678482291053, 0.00012482998068576282,
        -0.0001081511805944971, -6.3871620857995886e-05},
       {0.00033876105928683383, -0.00013581057652539726,
        0.00057265522115168761, 0.0005841594694896544}},
      {5, 1e7, 26.852400812910247,
       {-0.00044997309839315386, 0.00059601956218430566,
        -0.00041578132542290146, -0.00043307475773132965},
       {0.00046995505520229237, -0.00076219555005589234,
        0.00074924334923548788, 0.00091608236182359574}},
  };
  auto near_rel = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::abs(want);
  };
  ChannelBatch::Scratch scratch;
  CsiMatrix csi;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << goldencase::case_name(pin.idx) << " at t=" << pin.t);
    auto ch = make_golden_channel(pin.idx);
    const double snr = ChannelBatch::snr_link(*ch, pin.t, scratch);
    ChannelBatch::csi_true_link(*ch, pin.t, csi, scratch);
    EXPECT_TRUE(near_rel(snr, pin.snr_db)) << snr << " vs " << pin.snr_db;
    for (int e = 0; e < 4; ++e) {
      const cplx z = csi.raw()[kEntries[e]];
      EXPECT_TRUE(near_rel(z.real(), pin.re[e]))
          << "re[" << kEntries[e] << "] " << z.real() << " vs " << pin.re[e];
      EXPECT_TRUE(near_rel(z.imag(), pin.im[e]))
          << "im[" << kEntries[e] << "] " << z.imag() << " vs " << pin.im[e];
    }
  }
}

}  // namespace
}  // namespace mobiwlan
