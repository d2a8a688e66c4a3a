#include "core/csi_similarity.hpp"

#include <cmath>
#include <stdexcept>

#include "util/lane4.hpp"
#include "util/simd.hpp"

namespace mobiwlan {

double pearson_correlation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("pearson_correlation: size mismatch or empty");
  const double n = static_cast<double>(a.size());
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 1e-30 || var_b <= 1e-30) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

namespace {

#define MOBIWLAN_LANE4_BODY "core/csi_similarity_kernels.inc"
#include "util/lane4_tiers.inc"

double magnitude_pass(const cplx* p, std::size_t n_sc, double* mag) {
#if defined(__x86_64__)
  if (simd::use_avx2fma()) return avx2_tier::magnitude_pass(p, n_sc, mag);
#endif
  return scalar_tier::magnitude_pass(p, n_sc, mag);
}

double correlation_pass(const double* mag_a, double mean_a,
                        const double* mag_b, double mean_b, std::size_t n_sc) {
#if defined(__x86_64__)
  if (simd::use_avx2fma())
    return avx2_tier::correlation_pass(mag_a, mean_a, mag_b, mean_b, n_sc);
#endif
  return scalar_tier::correlation_pass(mag_a, mean_a, mag_b, mean_b, n_sc);
}

}  // namespace

double csi_similarity(const CsiMatrix& a, const CsiMatrix& b, std::size_t tx,
                      std::size_t rx, CsiSimilarityScratch& scratch) {
  const std::size_t n_sc = a.n_subcarriers();
  if (n_sc != 0) {  // empty keeps the scalar throw below
    scratch.mag_a.resize(n_sc);
    scratch.mag_b.resize(n_sc);
    const double mean_a =
        magnitude_pass(&a.at(tx, rx, 0), n_sc, scratch.mag_a.data());
    const double mean_b =
        magnitude_pass(&b.at(tx, rx, 0), n_sc, scratch.mag_b.data());
    return correlation_pass(scratch.mag_a.data(), mean_a,
                            scratch.mag_b.data(), mean_b, n_sc);
  }
  a.magnitudes_into(tx, rx, scratch.mag_a);
  b.magnitudes_into(tx, rx, scratch.mag_b);
  return pearson_correlation(scratch.mag_a, scratch.mag_b);
}

void csi_anchor_set(const CsiMatrix& m, CsiAnchor& anchor) {
  const std::size_t n_sc = m.n_subcarriers();
  anchor.n_pairs = m.n_tx() * m.n_rx();
  anchor.n_sc = n_sc;
  anchor.mag.resize(anchor.n_pairs * n_sc);
  anchor.mean.resize(anchor.n_pairs);
  std::size_t pair = 0;
  for (std::size_t tx = 0; tx < m.n_tx(); ++tx)
    for (std::size_t rx = 0; rx < m.n_rx(); ++rx, ++pair)
      anchor.mean[pair] =
          magnitude_pass(&m.at(tx, rx, 0), n_sc, &anchor.mag[pair * n_sc]);
}

double csi_similarity_anchored(const CsiAnchor& anchor, const CsiMatrix& b,
                               CsiAnchor& next) {
  const std::size_t n_sc = b.n_subcarriers();
  if (b.n_tx() * b.n_rx() != anchor.n_pairs || n_sc != anchor.n_sc ||
      n_sc == 0)
    throw std::invalid_argument("csi_similarity_anchored: dimension mismatch");
  // The magnitude pass for b doubles as `next`'s anchor state; the pair loop
  // mirrors the tx-major accumulation of csi_similarity(a, b), so the result
  // is bitwise what the unanchored call computes.
  csi_anchor_set(b, next);
  double sum = 0.0;
  for (std::size_t pair = 0; pair < anchor.n_pairs; ++pair)
    sum += correlation_pass(&anchor.mag[pair * n_sc], anchor.mean[pair],
                            &next.mag[pair * n_sc], next.mean[pair], n_sc);
  return sum / static_cast<double>(anchor.n_pairs);
}

double csi_similarity(const CsiMatrix& a, const CsiMatrix& b, std::size_t tx,
                      std::size_t rx) {
  CsiSimilarityScratch scratch;
  return csi_similarity(a, b, tx, rx, scratch);
}

double csi_similarity(const CsiMatrix& a, const CsiMatrix& b,
                      CsiSimilarityScratch& scratch) {
  if (a.n_tx() != b.n_tx() || a.n_rx() != b.n_rx() ||
      a.n_subcarriers() != b.n_subcarriers())
    throw std::invalid_argument("csi_similarity: dimension mismatch");
  double sum = 0.0;
  for (std::size_t tx = 0; tx < a.n_tx(); ++tx)
    for (std::size_t rx = 0; rx < a.n_rx(); ++rx)
      sum += csi_similarity(a, b, tx, rx, scratch);
  return sum / static_cast<double>(a.n_tx() * a.n_rx());
}

double csi_similarity(const CsiMatrix& a, const CsiMatrix& b) {
  CsiSimilarityScratch scratch;
  return csi_similarity(a, b, scratch);
}

}  // namespace mobiwlan
