// Property suite: the mobility classifier's decision depends only on the
// information the paper says it does.
//
// Eq. (1) correlates per-subcarrier magnitude profiles, so the decision must
// be invariant under (a) a consistent relabeling of the subcarriers — the
// chipset's reporting order is a driver detail — and (b) a global phase
// rotation of each CSI frame — the receiver's carrier-phase offset is
// arbitrary packet-to-packet and carries no mobility information. Both
// transforms reorder/perturb floating-point sums, so similarities match to
// ~1e-9, not bit-exactly; the decisions must match exactly.
#include "core/mobility_classifier.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include "chan/scenario.hpp"
#include "core/csi_similarity.hpp"
#include "proptest.hpp"

namespace mobiwlan {
namespace {

using proptest::gen_permutation;
using proptest::run_cases;

constexpr MobilityClass kAllClasses[] = {
    MobilityClass::kStatic, MobilityClass::kEnvironmental, MobilityClass::kMicro,
    MobilityClass::kMacro};

/// The same CSI frame with subcarriers relabeled by `perm`.
CsiMatrix permute_subcarriers(const CsiMatrix& in,
                              const std::vector<std::size_t>& perm) {
  CsiMatrix out(in.n_tx(), in.n_rx(), in.n_subcarriers());
  for (std::size_t tx = 0; tx < in.n_tx(); ++tx)
    for (std::size_t rx = 0; rx < in.n_rx(); ++rx)
      for (std::size_t sc = 0; sc < in.n_subcarriers(); ++sc)
        out.at(tx, rx, perm[sc]) = in.at(tx, rx, sc);
  return out;
}

/// The same CSI frame rotated by a global phase (all entries times e^{j phi}).
CsiMatrix rotate_phase(const CsiMatrix& in, double phi) {
  CsiMatrix out = in;
  const cplx rot = std::polar(1.0, phi);
  for (cplx& z : out.raw()) z *= rot;
  return out;
}

/// Feeds `frames` to classifiers receiving the original and a transformed
/// stream; asserts identical decisions and near-identical similarities.
void expect_invariant_decisions(
    const std::vector<CsiMatrix>& frames,
    const std::vector<CsiMatrix>& transformed_frames) {
  MobilityClassifier original;
  MobilityClassifier transformed;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const double t = 0.5 * static_cast<double>(k);
    original.on_csi(t, frames[k]);
    transformed.on_csi(t, transformed_frames[k]);
    ASSERT_EQ(original.mode(), transformed.mode()) << "at frame " << k;
    const auto s0 = original.similarity();
    const auto s1 = transformed.similarity();
    ASSERT_EQ(s0.has_value(), s1.has_value()) << "at frame " << k;
    if (s0) {
      EXPECT_NEAR(*s0, *s1, 1e-9) << "at frame " << k;
    }
  }
}

/// A 12 s CSI stream at the classifier's 0.5 s decimation period.
std::vector<CsiMatrix> random_csi_stream(Rng& rng, int case_index) {
  Scenario s = make_scenario(kAllClasses[case_index % 4], rng);
  std::vector<CsiMatrix> frames;
  for (double t = 0.0; t < 12.0; t += 0.5)
    frames.push_back(s.channel->csi_at(t));
  return frames;
}

TEST(ClassifierProperty, DecisionInvariantUnderSubcarrierPermutation) {
  run_cases("classifier_permutation_invariance", [](Rng& rng, int i) {
    const std::vector<CsiMatrix> frames = random_csi_stream(rng, i);
    const std::vector<std::size_t> perm =
        gen_permutation(rng, frames.front().n_subcarriers());
    std::vector<CsiMatrix> permuted;
    for (const CsiMatrix& f : frames)
      permuted.push_back(permute_subcarriers(f, perm));
    expect_invariant_decisions(frames, permuted);
  });
}

TEST(ClassifierProperty, DecisionInvariantUnderGlobalPhaseRotation) {
  run_cases("classifier_phase_invariance", [](Rng& rng, int i) {
    const std::vector<CsiMatrix> frames = random_csi_stream(rng, i);
    std::vector<CsiMatrix> rotated;
    // A fresh phase per frame: carrier phase is not coherent across packets.
    for (const CsiMatrix& f : frames)
      rotated.push_back(rotate_phase(f, rng.phase()));
    expect_invariant_decisions(frames, rotated);
  });
}

TEST(ClassifierProperty, SimilarityInvariantUnderJointTransforms) {
  run_cases("similarity_transform_invariance", [](Rng& rng, int) {
    // Directly on Eq. (1): permuting both arguments with one permutation and
    // rotating each by independent phases leaves the similarity unchanged
    // (up to the reordered-summation rounding).
    Scenario s = make_scenario(
        kAllClasses[rng.uniform_int(0, 3)], rng);
    const CsiMatrix a = s.channel->csi_at(0.0);
    const CsiMatrix b = s.channel->csi_at(rng.uniform(0.25, 2.0));
    const std::vector<std::size_t> perm =
        gen_permutation(rng, a.n_subcarriers());
    const CsiMatrix ta = rotate_phase(permute_subcarriers(a, perm),
                                      rng.phase());
    const CsiMatrix tb = rotate_phase(permute_subcarriers(b, perm),
                                      rng.phase());
    EXPECT_NEAR(csi_similarity(ta, tb), csi_similarity(a, b), 1e-9);
  });
}

}  // namespace
}  // namespace mobiwlan
