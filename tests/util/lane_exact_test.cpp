// lane_exact_test — the fp64 transcendentals (util/lane4_math.inc) and the
// dispatch sites whose fp64 kernels compile one body for both tiers
// (util/lane4.hpp: the batched channel engine, the Box-Muller noise fill,
// the Eq.-1 similarity kernel) must produce bit-identical outputs whether
// the scalar or the AVX2 tier runs. This is the foundation of the campus
// determinism contract across hosts: a non-AVX2 machine reproduces an AVX2
// machine's digests exactly.
//
// The kernel and tier-pair tests skip on hosts without AVX2+FMA (there is
// no vector tier to compare against; the scalar tier is then simply the
// only implementation). The shape sweep runs every tier the host has, so
// there it still checks the fp32 budget at the scalar tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "core/csi_similarity.hpp"
#include "util/lane4.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "../chan/channel_golden_cases.hpp"

namespace mobiwlan {
namespace {

// scalar_tier:: and avx2_tier:: sincos4 / log_pos4 / exp2_4.
#define MOBIWLAN_LANE4_BODY "util/lane4_calls.inc"
#include "util/lane4_tiers.inc"

bool host_has_avx2() { return simd::avx2fma_supported(); }

std::uint64_t dbits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Each kernel test draws 200000 arguments, four per call, and compares
// every lane of the scalar tier with the same lane of the AVX2 tier.

TEST(LaneExact, SincosTiersBitwise) {
#if defined(__x86_64__)
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  Rng rng(0xabcdef12345ULL);
  for (int i = 0; i < 200000; i += 4) {
    // Sweep the full wide-argument domain plus a dense small-angle band.
    double x[4];
    for (int l = 0; l < 4; ++l)
      x[l] = ((i + l) % 2 == 0)
                 ? rng.uniform(-fastmath::kSincosWideMaxArg,
                               fastmath::kSincosWideMaxArg)
                 : rng.uniform(-8.0, 8.0);
    double s_scalar[4], c_scalar[4], s_avx2[4], c_avx2[4];
    scalar_tier::sincos4(x, s_scalar, c_scalar);
    avx2_tier::sincos4(x, s_avx2, c_avx2);
    for (int l = 0; l < 4; ++l) {
      ASSERT_EQ(dbits(s_scalar[l]), dbits(s_avx2[l])) << "sin(" << x[l] << ")";
      ASSERT_EQ(dbits(c_scalar[l]), dbits(c_avx2[l])) << "cos(" << x[l] << ")";
    }
  }
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

TEST(LaneExact, LogPosTiersBitwise) {
#if defined(__x86_64__)
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  Rng rng(0x5151515151ULL);
  for (int i = 0; i < 200000; i += 4) {
    // Positive normals across a wide exponent range, including the
    // Box-Muller domain (0, 1].
    double x[4];
    for (int l = 0; l < 4; ++l) {
      const double mant = rng.uniform(0.5, 2.0);
      const int expo = rng.uniform_int(-60, 60);
      x[l] = ((i + l) % 2 == 0) ? std::ldexp(mant, expo)
                                : 1.0 - rng.uniform();
    }
    double scalar[4], avx2[4];
    scalar_tier::log_pos4(x, scalar);
    avx2_tier::log_pos4(x, avx2);
    for (int l = 0; l < 4; ++l)
      ASSERT_EQ(dbits(scalar[l]), dbits(avx2[l])) << "log(" << x[l] << ")";
  }
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

TEST(LaneExact, Exp2TiersBitwise) {
#if defined(__x86_64__)
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  Rng rng(0x77aa77aa77ULL);
  for (int i = 0; i < 200000; i += 4) {
    double x[4];
    for (int l = 0; l < 4; ++l) x[l] = rng.uniform(-250.0, 250.0);
    double scalar[4], avx2[4];
    scalar_tier::exp2_4(x, scalar);
    avx2_tier::exp2_4(x, avx2);
    for (int l = 0; l < 4; ++l)
      ASSERT_EQ(dbits(scalar[l]), dbits(avx2[l])) << "exp2(" << x[l] << ")";
  }
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

/// Pins the SIMD tier for the duration of a scope.
struct TierGuard {
  explicit TierGuard(int tier) { simd::set_forced_tier(tier); }
  ~TierGuard() { simd::set_forced_tier(-1); }
};

void expect_sample_bits_equal(const ChannelSample& a, const ChannelSample& b,
                              std::size_t link) {
  ASSERT_EQ(a.csi.raw().size(), b.csi.raw().size());
  for (std::size_t k = 0; k < a.csi.raw().size(); ++k) {
    ASSERT_EQ(dbits(a.csi.raw()[k].real()), dbits(b.csi.raw()[k].real()))
        << "link " << link << " re[" << k << "]";
    ASSERT_EQ(dbits(a.csi.raw()[k].imag()), dbits(b.csi.raw()[k].imag()))
        << "link " << link << " im[" << k << "]";
  }
  EXPECT_EQ(dbits(a.rssi_dbm), dbits(b.rssi_dbm)) << "link " << link;
  EXPECT_EQ(dbits(a.tof_cycles), dbits(b.tof_cycles)) << "link " << link;
  EXPECT_EQ(dbits(a.snr_db), dbits(b.snr_db)) << "link " << link;
}

TEST(TierBitwise, BatchSamplesIdenticalAcrossTiers) {
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";

  // Two independent realizations of the golden links, one batch per tier.
  std::vector<std::unique_ptr<WirelessChannel>> links_s, links_v;
  ChannelBatch batch_s, batch_v;
  for (std::size_t idx = 0; idx < goldencase::kNumCases; ++idx) {
    links_s.push_back(goldencase::make_golden_channel(idx));
    links_v.push_back(goldencase::make_golden_channel(idx));
    batch_s.add_link(links_s.back().get());
    batch_v.add_link(links_v.back().get());
  }
  ChannelBatch::Scratch scratch;
  std::vector<ChannelSample> out_s(goldencase::kNumCases);
  std::vector<ChannelSample> out_v(goldencase::kNumCases);

  // 3e6 s and 1e7 s push the movers' pacing phases past the fastmath
  // range: the wide-argument geometry must stay tier-invariant too.
  for (const double t : {0.0, 0.25, 1.0, 2.5, 4.0, 3e6, 1e7}) {
    {
      TierGuard g(0);
      batch_s.sample_range(t, 0, goldencase::kNumCases, out_s.data(),
                           scratch);
    }
    {
      TierGuard g(1);
      batch_v.sample_range(t, 0, goldencase::kNumCases, out_v.data(),
                           scratch);
    }
    for (std::size_t i = 0; i < goldencase::kNumCases; ++i) {
      SCOPED_TRACE(::testing::Message()
                   << goldencase::case_name(i) << " at t=" << t);
      expect_sample_bits_equal(out_s[i], out_v[i], i);
    }
  }
}

/// A strong-activity macro link with the given antenna and subcarrier
/// counts (the golden cases are all 3x2x52).
std::unique_ptr<WirelessChannel> make_shaped_channel(std::size_t n_tx,
                                                     std::size_t n_rx,
                                                     std::size_t n_sc) {
  ChannelConfig cfg;
  cfg.activity = EnvironmentalActivity::kStrong;
  cfg.n_tx = n_tx;
  cfg.n_rx = n_rx;
  cfg.n_subcarriers = n_sc;
  Rng rng(20140204 + 100 * n_tx + 10 * n_rx + n_sc);
  auto traj = std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0},
                                                 Vec2{1.0, 0.4}, 1.2);
  return std::make_unique<WirelessChannel>(cfg, Vec2{0.0, 0.0},
                                           std::move(traj), rng.split());
}

TEST(TierBitwise, ShapeSweepAcrossTiersAndPrecisions) {
  // Pair counts 1..7 reach every register-block width of every MAC (NB = 1
  // to 6, and a 6 + 1 split); 4, 12 and 16 subcarriers reach the sub-lane
  // tails of the 8- and 16-lane kernels, and 7 and 30 the sub-4 remainder
  // of the fp64 fill and MAC. At every tier the host has, fp64 must equal
  // the scalar tier bitwise and fp32 must stay within the 1e-4
  // scale-relative budget of fp64.
  const int best = static_cast<int>(simd::best_supported_tier());
  const std::size_t shapes[][2] = {{1, 1}, {1, 2}, {1, 3}, {2, 2},
                                   {1, 5}, {2, 3}, {1, 7}};
  ChannelBatch::Scratch scratch;
  CsiMatrix ref, got;
  for (const auto& shape : shapes) {
    for (const std::size_t n_sc : {4u, 7u, 12u, 16u, 30u, 52u}) {
      SCOPED_TRACE(::testing::Message() << shape[0] << "x" << shape[1]
                                        << "x" << n_sc);
      auto ch = make_shaped_channel(shape[0], shape[1], n_sc);
      {
        TierGuard g(0);
        ChannelBatch::csi_true_link(*ch, 1.3, ref, scratch);
      }
      double scale = 1e-300;
      for (const cplx& z : ref.raw())
        scale = std::max({scale, std::abs(z.real()), std::abs(z.imag())});
      for (int tier = 0; tier <= best; ++tier) {
        SCOPED_TRACE(simd::tier_name(static_cast<simd::Tier>(tier)));
        TierGuard g(tier);
        ChannelBatch::csi_true_link(*ch, 1.3, got, scratch);
        ASSERT_EQ(got.raw().size(), ref.raw().size());
        for (std::size_t k = 0; k < ref.raw().size(); ++k) {
          ASSERT_EQ(dbits(got.raw()[k].real()), dbits(ref.raw()[k].real()))
              << "fp64 re[" << k << "]";
          ASSERT_EQ(dbits(got.raw()[k].imag()), dbits(ref.raw()[k].imag()))
              << "fp64 im[" << k << "]";
        }
        simd::set_forced_precision(1);
        ChannelBatch::csi_true_link(*ch, 1.3, got, scratch);
        simd::set_forced_precision(-1);
        ASSERT_EQ(got.raw().size(), ref.raw().size());
        for (std::size_t k = 0; k < ref.raw().size(); ++k) {
          EXPECT_NEAR(got.raw()[k].real(), ref.raw()[k].real(), 1e-4 * scale)
              << "fp32 re[" << k << "]";
          EXPECT_NEAR(got.raw()[k].imag(), ref.raw()[k].imag(), 1e-4 * scale)
              << "fp32 im[" << k << "]";
        }
      }
    }
  }
}

TEST(TierBitwise, SimilarityIdenticalAcrossTiers) {
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  // Adjacent snapshots of each link; the golden cases all have 52
  // subcarriers, so a 30-subcarrier link reaches the sub-4 tails of the
  // magnitude and correlation passes.
  std::vector<std::unique_ptr<WirelessChannel>> links;
  for (std::size_t idx = 0; idx < goldencase::kNumCases; ++idx)
    links.push_back(goldencase::make_golden_channel(idx));
  links.push_back(make_shaped_channel(3, 2, 30));
  std::vector<CsiMatrix> snaps;
  for (auto& ch : links) {
    snaps.push_back(ch->csi_at(0.0));
    snaps.push_back(ch->csi_at(0.5));
  }
  CsiSimilarityScratch scratch;
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    if (snaps[i].n_subcarriers() != snaps[i + 1].n_subcarriers()) continue;
    double sim_s, sim_v;
    {
      TierGuard g(0);
      sim_s = csi_similarity(snaps[i], snaps[i + 1], scratch);
    }
    {
      TierGuard g(1);
      sim_v = csi_similarity(snaps[i], snaps[i + 1], scratch);
    }
    EXPECT_EQ(dbits(sim_s), dbits(sim_v)) << "pair " << i;
  }
}

TEST(TierBitwise, NoiseFillIdenticalAcrossTiers) {
  if (!host_has_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  // Odd/even lengths and a pending cached deviate all hit the vector /
  // mirror / shared-remainder splits differently; every combination must
  // stay bitwise tier-invariant.
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 28u, 56u, 57u}) {
    for (const bool prime_cached : {false, true}) {
      std::vector<cplx> buf_s(n, cplx{0.0, 0.0});
      std::vector<cplx> buf_v(n, cplx{0.0, 0.0});
      {
        TierGuard g(0);
        Rng rng(0x1234u + n);
        if (prime_cached) (void)rng.gaussian();  // leaves a cached deviate
        rng.add_complex_gaussian(buf_s.data(), n, 2.0);
      }
      {
        TierGuard g(1);
        Rng rng(0x1234u + n);
        if (prime_cached) (void)rng.gaussian();
        rng.add_complex_gaussian(buf_v.data(), n, 2.0);
      }
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(dbits(buf_s[k].real()), dbits(buf_v[k].real()))
            << "n=" << n << " cached=" << prime_cached << " re[" << k << "]";
        ASSERT_EQ(dbits(buf_s[k].imag()), dbits(buf_v[k].imag()))
            << "n=" << n << " cached=" << prime_cached << " im[" << k << "]";
      }
    }
  }
}

}  // namespace
}  // namespace mobiwlan
