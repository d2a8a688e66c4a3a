// channel_batch_equivalence_test — slot-indexed calls vs link entry points.
//
// Every read of a link runs through the same ChannelBatch kernels, whether
// it comes from a range call over registered slots or from a link entry
// point on an unregistered channel. Both sides below are identical
// realizations drawing from their own RNG state, so lockstep call sequences
// must agree bitwise: every CSI element, every RSSI / SNR / ToF reading.
// CMake re-runs this binary under each forced SIMD tier (scalar, avx2,
// avx512); both sides resolve the same tier, so the contract holds on
// every one. The tile sweep below also walks every tier and both
// precisions itself.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "channel_golden_cases.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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

/// Link k of the tile sweep's mixed set, built the same way on every call
/// so two calls give identical realizations: 1x1 links at 16, 7 and 30
/// subcarriers, a 3x2x52 link, no / weak / strong activity (movers and
/// blockage), a link with shadow_sigma_db = 0, static, micro and walking
/// clients, and a client 1e10 m out, whose carrier and shadow-field phases
/// leave the fastmath range at any t (its LOS obstruction is off, so its
/// amplitudes stay in the dB kernels' domain).
std::unique_ptr<WirelessChannel> make_tile_link(std::size_t k) {
  Rng rng = Rng(20140204).stream(5000 + k);
  ChannelConfig cfg;
  cfg.n_tx = 1;
  cfg.n_rx = 1;
  cfg.n_paths = 4;
  cfg.n_subcarriers = 16;
  switch (k % 7) {
    case 1:
      cfg.n_subcarriers = 7;
      cfg.activity = EnvironmentalActivity::kWeak;
      break;
    case 2:
      cfg.n_subcarriers = 30;
      cfg.activity = EnvironmentalActivity::kStrong;
      break;
    case 3:
      cfg = ChannelConfig{};  // 3x2x52, 10 structural paths
      cfg.activity = EnvironmentalActivity::kStrong;
      break;
    case 4: cfg.shadow_sigma_db = 0.0; break;
    case 5: cfg.activity = EnvironmentalActivity::kWeak; break;
    case 6: cfg.los_obstruction_db_per_m = 0.0; break;
    default: break;
  }
  const Vec2 ap{0.0, 0.0};
  const Vec2 start{8.0 + static_cast<double>(k), 3.0 - static_cast<double>(k % 4)};
  std::shared_ptr<const Trajectory> traj;
  if (k % 7 == 6) {
    traj = std::make_shared<StaticTrajectory>(Vec2{1e10, 0.0});
  } else if (k % 3 == 0) {
    traj = std::make_shared<StaticTrajectory>(start);
  } else if (k % 3 == 1) {
    traj = std::make_shared<MicroTrajectory>(start, rng, 0.5);
  } else {
    traj = std::make_shared<RadialBounceTrajectory>(ap, start, 4.0, 20.0, 1.2);
  }
  return std::make_unique<WirelessChannel>(cfg, ap, std::move(traj),
                                           rng.split());
}

/// Forces a SIMD tier and a precision for one scope, restoring the
/// environment's choice on exit.
struct TierGuard {
  TierGuard(int tier, int precision) {
    simd::set_forced_tier(tier);
    simd::set_forced_precision(precision);
  }
  ~TierGuard() {
    simd::set_forced_tier(-1);
    simd::set_forced_precision(-1);
  }
};

TEST(ChannelBatchEquivalence, TilesMatchSequentialLinkReads) {
  // sample_links samples its links in tiles of ChannelBatch::kTile, each
  // stage once over the tile. Every link's sample, and every later draw
  // from its RNG, must be bitwise what sequential sample_link calls on an
  // identical clone give: for a lone link, a partial tile, a full tile and
  // a full tile plus one, at an ordinary read time and at t = 3e6 s, where
  // the movers' pacing phases leave the fastmath range too. So tiles mix
  // links that take the wide-argument sincos in geometry or synthesis with
  // links that do not. Link 5 enters each read with a cached gaussian
  // pending in its RNG.
  for (const int tier : {0, 1, 2}) {
    for (const int precision : {0, 1}) {
      TierGuard guard(tier, precision);
      for (const std::size_t n : {1u, 3u, 16u, 17u}) {
        std::vector<std::unique_ptr<WirelessChannel>> tile_links, ref_links;
        std::vector<WirelessChannel*> tile;
        for (std::size_t k = 0; k < n; ++k) {
          tile_links.push_back(make_tile_link(k));
          ref_links.push_back(make_tile_link(k));
          tile.push_back(tile_links.back().get());
        }
        ChannelBatch::Scratch scratch, ref_scratch;
        std::vector<ChannelSample> out(n);
        ChannelSample ref;
        for (const double t : {0.5, 3e6}) {
          if (n > 5) {
            EXPECT_EQ(tile_links[5]->rssi_dbm(t), ref_links[5]->rssi_dbm(t));
          }
          ChannelBatch::sample_links(tile.data(), n, t, out.data(), scratch);
          for (std::size_t k = 0; k < n; ++k) {
            SCOPED_TRACE(::testing::Message()
                         << "tier " << tier << " precision " << precision
                         << " tile of " << n << " link " << k << " t=" << t);
            ChannelBatch::sample_link(*ref_links[k], t, ref, ref_scratch);
            expect_sample_equal(out[k], ref, k);
            // The next two draws: a cached deviate first, if any, then a
            // fresh pair.
            for (int draw = 0; draw < 2; ++draw)
              EXPECT_EQ(tile_links[k]->tof_cycles(t),
                        ref_links[k]->tof_cycles(t));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mobiwlan
