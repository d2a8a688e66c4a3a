// channel_steer_digest_test — pinned CSI digests for single- and
// multi-antenna channel shapes on every SIMD tier and both precisions.
//
// Synthesis stages a tx steering phase only for n_tx > 1 and an rx one only
// for n_rx > 1, and runs a unit-steer MAC (acc += base) for one antenna
// pair. Both must be bit-identical to the full four-lane staging and the
// general steer x base MAC, so the digests below were captured from the
// general path and pin:
//
//   - 1x1 (the campus shape, plus a 30- and a 7-subcarrier variant that
//     reach the MAC's remainder tails), 1x3 and 3x1 — the shapes where one
//     or both steering lanes are skipped;
//   - 3x2 — a control that runs the general path on both sides;
//   - 1x2, 2x2, 1x5 and 1x7 — with 1x3 and 3x2, every width of the MAC's
//     register blocks (1..6 pairs, and 7 as a 6 + 1 split);
//   - 2x2 and 1x7 at 4 and 12 subcarriers — multi-pair shapes narrower
//     than a vector, or with a partial one: at 12 the 8-lane fp32 MAC takes
//     its overlapped tail and the 16-lane one its scalar fallback.
//
// Each digest folds the bits of full noisy samples (CSI, RSSI, SNR, ToF)
// over two seconds, so the MAC's wideband power, which sets the CSI noise
// variance, is pinned too. fp64 has one digest on every tier; fp32 is
// pinned per tier, since its kernels differ by tier. A tier the host cannot
// run is skipped.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan {
namespace {

struct Shape {
  const char* name;
  std::size_t n_tx;
  std::size_t n_rx;
  std::size_t n_subcarriers;  ///< 0 = the campus channel config as is
  std::uint64_t fp64;         ///< every tier
  std::uint64_t fp32[3];      ///< per tier: scalar, avx2, avx512
};

constexpr Shape kShapes[] = {
    {"1x1_campus", 1, 1, 0,
     0xc2b3becda2c8cac4ull,
     {0x20108696e3ab500cull, 0x74fd5a1d0171e35dull, 0x1b7630d64cec7999ull}},
    {"1x1_sc30", 1, 1, 30,
     0xf8b8e68f4e408189ull,
     {0x1dbae540644bc6f0ull, 0x0deb4071fbb10c7bull, 0x9f25a6f6dff47c87ull}},
    {"1x1_sc7", 1, 1, 7,
     0xcb2d64ea15dce18aull,
     {0x8cda2a818153f6c4ull, 0x9ef9c6b4ad186777ull, 0x9ef9c6b4ad186777ull}},
    {"1x3", 1, 3, 30,
     0xcb9afaaecd8bcf51ull,
     {0x8a267e109d3085e7ull, 0x3bf2a8b88c10d220ull, 0x44333bff0b4a551aull}},
    {"3x1", 3, 1, 30,
     0x1e4281aef5a8a7a3ull,
     {0xd4c164b80b0570aeull, 0xc0fb2d52cb820076ull, 0x977ff0991496bf8full}},
    {"3x2_control", 3, 2, 52,
     0x18d0077f66a1e6ecull,
     {0xc2c43e936894c8c2ull, 0xce5aa8e472ae80c7ull, 0x343bf946d469e795ull}},
    {"1x2", 1, 2, 30,
     0xe317aaeac9fa9d62ull,
     {0x75dda38d5f1e73e3ull, 0x8f2edd6f5c8d3fabull, 0x9de9281b3826912eull}},
    {"2x2", 2, 2, 30,
     0xcf5f073ba3838b67ull,
     {0x0350c3090bc15fc3ull, 0x0d88be60bc6b1d2aull, 0x45d8544c913bdc4cull}},
    {"1x5", 1, 5, 30,
     0xf2c01d5d4424b10eull,
     {0x13f46958b46a6ac5ull, 0x1d959726bf03cb45ull, 0x850c98c5d3f43411ull}},
    {"1x7", 1, 7, 30,
     0x4e165d92c2e74239ull,
     {0x48f0b131137f677cull, 0x0b7f5da3e2da328full, 0x2d79249a08f4d10aull}},
    {"2x2_sc4", 2, 2, 4,
     0x63aa62f670d84859ull,
     {0x582107fb1ac22142ull, 0x0f49d40097762075ull, 0x0f49d40097762075ull}},
    {"2x2_sc12", 2, 2, 12,
     0xccb44ab7a2373a1cull,
     {0xe8ef662cf6ad8096ull, 0xadd38e743f371e7aull, 0x1e83f2c0244f7553ull}},
    {"1x7_sc12", 1, 7, 12,
     0x39f030572a7c96baull,
     {0xad2a6b22209f3928ull, 0x9295509402faeb31ull, 0xc64d2d655e89dc50ull}},
};

std::uint64_t mix(std::uint64_t h, double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A strong-activity walking client (moving scatterers exercise every
/// geometry lane), reshaped to the given antenna and subcarrier counts.
std::uint64_t digest(const Shape& shape) {
  ChannelConfig cfg;
  if (shape.n_subcarriers == 0) {
    cfg = campus::campus_channel_config();
  } else {
    cfg.n_subcarriers = shape.n_subcarriers;
    cfg.activity = EnvironmentalActivity::kStrong;
  }
  cfg.n_tx = shape.n_tx;
  cfg.n_rx = shape.n_rx;
  Rng rng = Rng(20140204).stream(7700 + shape.n_tx * 10 + shape.n_rx);
  auto traj = std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0},
                                                 Vec2{1.0, 0.4}, 1.2);
  WirelessChannel ch(cfg, Vec2{0.0, 0.0}, std::move(traj), rng.split());

  ChannelBatch::Scratch scratch;
  ChannelSample sample;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 20; ++i) {
    ChannelBatch::sample_link(ch, 0.1 * i, sample, scratch);
    for (const cplx& z : sample.csi.raw()) {
      h = mix(h, z.real());
      h = mix(h, z.imag());
    }
    h = mix(h, sample.rssi_dbm);
    h = mix(h, sample.snr_db);
    h = mix(h, sample.tof_cycles);
  }
  return h;
}

struct ForcedTiers {
  ForcedTiers(int tier, int precision) {
    simd::set_forced_tier(tier);
    simd::set_forced_precision(precision);
  }
  ~ForcedTiers() {
    simd::set_forced_tier(-1);
    simd::set_forced_precision(-1);
  }
};

class SteerDigest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SteerDigest, MatchesPinnedBits) {
  const Shape& shape = kShapes[std::get<0>(GetParam())];
  const int tier = std::get<1>(GetParam());
  if (static_cast<int>(simd::best_supported_tier()) < tier)
    GTEST_SKIP() << "host cannot run tier " << tier;

  std::uint64_t f64 = 0, f32 = 0;
  {
    ForcedTiers force(tier, 0);
    f64 = digest(shape);
  }
  {
    ForcedTiers force(tier, 1);
    f32 = digest(shape);
  }
  char got[96];
  std::snprintf(got, sizeof got, "fp64 0x%016" PRIx64 "ull, fp32 0x%016" PRIx64
                "ull", f64, f32);
  EXPECT_EQ(f64, shape.fp64) << shape.name << ": " << got;
  EXPECT_EQ(f32, shape.fp32[tier]) << shape.name << ": " << got;
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, int>>& info) {
  static const char* const kTiers[] = {"scalar", "avx2", "avx512"};
  return std::string(kShapes[std::get<0>(info.param)].name) + "_" +
         kTiers[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SteerDigest,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kShapes)),
                       ::testing::Values(0, 1, 2)),
    case_name);

}  // namespace
}  // namespace mobiwlan
