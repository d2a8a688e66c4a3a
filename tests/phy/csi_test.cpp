// Tests for the CsiMatrix container and the complex correlation of two
// CSI snapshots, which FrameChannel::measure turns into a frame's aging.
#include "phy/csi.hpp"

#include <gtest/gtest.h>

#include "mac/observer.hpp"
#include "util/rng.hpp"

namespace mobiwlan {
namespace {

CsiMatrix random_csi(std::size_t tx, std::size_t rx, std::size_t sc, Rng& rng) {
  CsiMatrix m(tx, rx, sc);
  for (auto& v : m.raw()) v = rng.complex_gaussian();
  return m;
}

TEST(CsiMatrixTest, DefaultIsEmpty) {
  CsiMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.n_tx(), 0u);
}

TEST(CsiMatrixTest, DimensionsAndIndexing) {
  CsiMatrix m(3, 2, 52);
  EXPECT_EQ(m.n_tx(), 3u);
  EXPECT_EQ(m.n_rx(), 2u);
  EXPECT_EQ(m.n_subcarriers(), 52u);
  EXPECT_EQ(m.raw().size(), 3u * 2u * 52u);
  m.at(2, 1, 51) = cplx(1.0, -1.0);
  EXPECT_EQ(m.at(2, 1, 51), cplx(1.0, -1.0));
  // Distinct cells do not alias.
  m.at(0, 0, 0) = cplx(9.0, 0.0);
  EXPECT_EQ(m.at(2, 1, 51), cplx(1.0, -1.0));
}

TEST(CsiMatrixTest, MagnitudesMatchAbs) {
  CsiMatrix m(1, 1, 3);
  m.at(0, 0, 0) = cplx(3.0, 4.0);
  m.at(0, 0, 1) = cplx(0.0, 2.0);
  m.at(0, 0, 2) = cplx(-1.0, 0.0);
  const auto mags = m.magnitudes(0, 0);
  EXPECT_DOUBLE_EQ(mags[0], 5.0);
  EXPECT_DOUBLE_EQ(mags[1], 2.0);
  EXPECT_DOUBLE_EQ(mags[2], 1.0);
}

TEST(CsiMatrixTest, MeanPower) {
  CsiMatrix m(1, 1, 2);
  m.at(0, 0, 0) = cplx(1.0, 0.0);
  m.at(0, 0, 1) = cplx(0.0, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_power(), 5.0);
}

TEST(CsiMatrixTest, SubcarrierMatrixConvention) {
  // subcarrier_matrix returns H with rows = rx antennas: H(rx, tx).
  CsiMatrix m(2, 1, 1);
  m.at(0, 0, 0) = cplx(1.0, 0.0);
  m.at(1, 0, 0) = cplx(2.0, 0.0);
  const CMatrix h = m.subcarrier_matrix(0);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(0, 1), cplx(2.0, 0.0));
}

TEST(CsiMatrixTest, SubcarrierGainsFlattenTxMajor) {
  CsiMatrix m(2, 2, 1);
  m.at(1, 0, 0) = cplx(7.0, 0.0);
  const auto gains = m.subcarrier_gains(0);
  ASSERT_EQ(gains.size(), 4u);
  EXPECT_EQ(gains[2], cplx(7.0, 0.0));  // tx=1, rx=0
}

/// |<a, b>| / (||a|| ||b||) as FrameChannel measures it: 1 - decorr_end.
double complex_correlation(const CsiMatrix& a, const CsiMatrix& b) {
  FrameChannel ch;
  ch.h_start = a;
  ch.h_end = b;
  ch.measure(20.0);
  return 1.0 - ch.decorr_end;
}

TEST(ComplexCorrelationTest, IdenticalIsOne) {
  Rng rng(1);
  const CsiMatrix a = random_csi(2, 2, 16, rng);
  EXPECT_NEAR(complex_correlation(a, a), 1.0, 1e-12);
}

TEST(ComplexCorrelationTest, ScalarRotationInvariant) {
  Rng rng(2);
  const CsiMatrix a = random_csi(2, 2, 16, rng);
  CsiMatrix b = a;
  for (auto& v : b.raw()) v *= std::polar(2.5, 1.234);
  EXPECT_NEAR(complex_correlation(a, b), 1.0, 1e-12);
}

TEST(ComplexCorrelationTest, IndependentNearZero) {
  Rng rng(3);
  double sum = 0.0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const CsiMatrix a = random_csi(3, 2, 52, rng);
    const CsiMatrix b = random_csi(3, 2, 52, rng);
    sum += complex_correlation(a, b);
  }
  EXPECT_LT(sum / trials, 0.2);
}

TEST(ComplexCorrelationTest, MismatchedSizesReturnZero) {
  Rng rng(4);
  const CsiMatrix a = random_csi(1, 1, 8, rng);
  const CsiMatrix b = random_csi(1, 1, 16, rng);
  EXPECT_DOUBLE_EQ(complex_correlation(a, b), 0.0);
}

TEST(ComplexCorrelationTest, ZeroMatrixReturnsZero) {
  CsiMatrix a(1, 1, 4);
  CsiMatrix b(1, 1, 4);
  b.at(0, 0, 0) = 1.0;
  EXPECT_DOUBLE_EQ(complex_correlation(a, b), 0.0);
}

}  // namespace
}  // namespace mobiwlan
