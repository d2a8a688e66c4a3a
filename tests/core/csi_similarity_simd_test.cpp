// csi_similarity_simd_test — scalar-vs-AVX2 agreement for Eq. (1).
//
// The vectorized kernel computes magnitudes as sqrt(re^2 + im^2) and
// reduces 4 partial sums in fixed lane order, so it matches the scalar
// Pearson path to rounding (~1e-14 relative), not bitwise. These tests pin
// the agreement on realistic CSI and the kernel's own structural
// contracts: exact argument symmetry and the zero-variance guard. On hosts
// without AVX2+FMA both runs take the scalar path and the comparisons are
// trivially exact.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "core/csi_similarity.hpp"
#include "util/simd.hpp"
#include "../chan/channel_golden_cases.hpp"

namespace mobiwlan {
namespace {

/// Runs `fn` once at the best tier the host has and once pinned to scalar,
/// restoring the environment-deferred default afterwards.
template <typename Fn>
void with_both_kernels(Fn fn, double& simd_out, double& scalar_out) {
  simd::set_forced_tier(2);
  simd_out = fn();
  simd::set_forced_tier(0);
  scalar_out = fn();
  simd::set_forced_tier(-1);
}

std::vector<CsiMatrix> golden_snapshots() {
  std::vector<CsiMatrix> out;
  for (std::size_t idx = 0; idx < goldencase::kNumCases; ++idx) {
    auto ch = goldencase::make_golden_channel(idx);
    out.push_back(ch->csi_at(0.0));
    out.push_back(ch->csi_at(0.5));
  }
  return out;
}

TEST(CsiSimilaritySimd, MatchesScalarOnGoldenChannels) {
  const std::vector<CsiMatrix> snaps = golden_snapshots();
  CsiSimilarityScratch scratch;
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    double vec = 0.0, sca = 0.0;
    with_both_kernels(
        [&] { return csi_similarity(snaps[i], snaps[i + 1], scratch); }, vec,
        sca);
    EXPECT_NEAR(vec, sca, 1e-12) << "pair " << i;
    EXPECT_LE(std::abs(vec), 1.0 + 1e-12);
  }
}

TEST(CsiSimilaritySimd, PerPairOverloadMatchesScalar) {
  const std::vector<CsiMatrix> snaps = golden_snapshots();
  CsiSimilarityScratch scratch;
  const CsiMatrix& a = snaps[0];
  const CsiMatrix& b = snaps[1];
  for (std::size_t tx = 0; tx < a.n_tx(); ++tx)
    for (std::size_t rx = 0; rx < a.n_rx(); ++rx) {
      double vec = 0.0, sca = 0.0;
      with_both_kernels(
          [&] { return csi_similarity(a, b, tx, rx, scratch); }, vec, sca);
      EXPECT_NEAR(vec, sca, 1e-12) << "pair (" << tx << "," << rx << ")";
    }
}

TEST(CsiSimilaritySimd, VectorKernelIsExactlySymmetric) {
  const std::vector<CsiMatrix> snaps = golden_snapshots();
  CsiSimilarityScratch scratch;
  simd::set_forced_tier(2);
  for (std::size_t i = 0; i + 1 < snaps.size(); i += 2)
    EXPECT_EQ(csi_similarity(snaps[i], snaps[i + 1], scratch),
              csi_similarity(snaps[i + 1], snaps[i], scratch));
  simd::set_forced_tier(-1);
}

TEST(CsiSimilaritySimd, SelfSimilarityIsOneUnderBothKernels) {
  const std::vector<CsiMatrix> snaps = golden_snapshots();
  CsiSimilarityScratch scratch;
  double vec = 0.0, sca = 0.0;
  with_both_kernels([&] { return csi_similarity(snaps[0], snaps[0], scratch); },
                    vec, sca);
  EXPECT_NEAR(vec, 1.0, 1e-12);
  EXPECT_NEAR(sca, 1.0, 1e-12);
}

TEST(CsiSimilaritySimd, ConstantMagnitudesScoreZeroUnderBothKernels) {
  // Zero magnitude variance trips the guard in both kernels.
  CsiMatrix a(3, 2, 52);
  CsiMatrix b(3, 2, 52);
  for (std::size_t k = 0; k < a.raw().size(); ++k) {
    a.raw()[k] = cplx{0.25, 0.0};
    b.raw()[k] = cplx{0.0, 0.5};
  }
  CsiSimilarityScratch scratch;
  double vec = 0.0, sca = 0.0;
  with_both_kernels([&] { return csi_similarity(a, b, scratch); }, vec, sca);
  EXPECT_EQ(vec, 0.0);
  EXPECT_EQ(sca, 0.0);
}

}  // namespace
}  // namespace mobiwlan
