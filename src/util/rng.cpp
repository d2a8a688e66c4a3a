#include "util/rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <cmath>
#include <numbers>

#include "util/fastmath.hpp"
#include "util/lane_math.hpp"
#include "util/simd.hpp"
#include "util/simd_math.hpp"

namespace mobiwlan {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

#if defined(__x86_64__)

// The elementwise log/sincos vector kernels live in util/simd_math.hpp
// (shared with the batched channel engine); the xoshiro draws stay scalar
// and sequential, so the uniform stream is identical to the scalar path.

// Four Box-Muller transforms: comp[0..7] += per * r_j * {cos, sin}(theta_j).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void box_muller4(const double* u1,
                                                     const double* u2,
                                                     double per, double* comp) {
  const __m256d r = _mm256_sqrt_pd(_mm256_mul_pd(
      _mm256_set1_pd(-2.0), simdmath::vlog_pos(_mm256_loadu_pd(u1))));
  const __m256d theta = _mm256_mul_pd(
      _mm256_set1_pd(2.0 * std::numbers::pi), _mm256_loadu_pd(u2));
  __m256d s, c;
  simdmath::vsincos(theta, s, c);
  const __m256d amp = _mm256_mul_pd(_mm256_set1_pd(per), r);
  const __m256d vc = _mm256_mul_pd(amp, c);
  const __m256d vs = _mm256_mul_pd(amp, s);
  // Interleave (c0,s0,c1,s1 | c2,s2,c3,s3) to match the scalar layout.
  const __m256d lo = _mm256_unpacklo_pd(vc, vs);
  const __m256d hi = _mm256_unpackhi_pd(vc, vs);
  const __m256d p0 = _mm256_permute2f128_pd(lo, hi, 0x20);
  const __m256d p1 = _mm256_permute2f128_pd(lo, hi, 0x31);
  _mm256_storeu_pd(comp, _mm256_add_pd(_mm256_loadu_pd(comp), p0));
  _mm256_storeu_pd(comp + 4, _mm256_add_pd(_mm256_loadu_pd(comp + 4), p1));
}

#endif  // __x86_64__

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // A state of all zeros is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero words from any seed, so no further check is needed.
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to keep the log finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

double Rng::exponential(double mean) { return -mean * std::log(1.0 - uniform()); }

double Rng::rayleigh(double sigma) {
  return sigma * std::sqrt(-2.0 * std::log(1.0 - uniform()));
}

std::complex<double> Rng::complex_gaussian(double variance) {
  const double per_component = std::sqrt(variance / 2.0);
  return {gaussian(0.0, per_component), gaussian(0.0, per_component)};
}

void Rng::add_complex_gaussian(std::complex<double>* dst, std::size_t n,
                               double variance) {
  if (n == 0) return;
  const double per = std::sqrt(variance / 2.0);
  // std::complex<double> is array-layout-compatible with double[2].
  double* comp = reinterpret_cast<double*>(dst);
  const std::size_t total = 2 * n;
  std::size_t k = 0;
  // A pending cached deviate feeds the first component, exactly as a
  // gaussian() call would consume it; the pairing below then stays shifted
  // by one for the rest of the block.
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    comp[k++] += per * cached_gaussian_;
  }
  // The component range splits at the same boundary on every tier: the
  // 8-aligned prefix is what the AVX2 kernel covers on vector hosts, so a
  // non-vector host must reproduce it bitwise through the lane-exact
  // mirrors; the sub-8 remainder runs the same scalar code on every tier
  // and keeps the original fastmath kernels (those bits are pinned by the
  // golden fixtures).
  const std::size_t vec_end = k + 8 * ((total - k) / 8);
#if defined(__x86_64__)
  // Four transforms per iteration on AVX2+FMA hosts (checked per call so
  // MOBIWLAN_SIMD_TIER and the simd test hook reach this path). The
  // uniforms are drawn scalar in the canonical order (u1 then u2 per
  // transform), so the stream position after the block matches the scalar
  // path exactly.
  if (simd::use_avx2fma()) {
    double u1[4], u2[4];
    while (k < vec_end) {
      for (int j = 0; j < 4; ++j) {
        u1[j] = 1.0 - uniform();
        u2[j] = uniform();
      }
      box_muller4(u1, u2, per, comp + k);
      k += 8;
    }
  }
#endif
  // Lane-exact mirror of box_muller4: same log / sincos bit patterns
  // (lanemath == one lane of the vector kernels), same product order
  // (amp = per * r, then amp * {c, s}).
  while (k < vec_end) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * lanemath::log_pos(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    double s, c;
    lanemath::sincos(theta, s, c);
    const double amp = per * r;
    comp[k] += amp * c;
    comp[k + 1] += amp * s;
    k += 2;
  }
  // theta = 2*pi*u2 < 2*pi, well inside fastmath::kSincosMaxArg; the inline
  // kernel matches libm to ~2 ulp, orders of magnitude below the 1e-12
  // equivalence budget on noise components (~1e-5 in magnitude).
  while (total - k >= 2) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    double s, c;
    fastmath::sincos(theta, s, c);
    comp[k] += per * (r * c);
    comp[k + 1] += per * (r * s);
    k += 2;
  }
  if (k < total) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    double s, c;
    fastmath::sincos(theta, s, c);
    comp[k] += per * (r * c);
    cached_gaussian_ = r * s;
    has_cached_gaussian_ = true;
  }
}

std::complex<double> Rng::rician(double k_factor) {
  const double los_amplitude = std::sqrt(k_factor / (k_factor + 1.0));
  const double scatter_power = 1.0 / (k_factor + 1.0);
  const double los_phase = phase();
  return std::polar(los_amplitude, los_phase) + complex_gaussian(scatter_power);
}

double Rng::phase() { return uniform(0.0, 2.0 * std::numbers::pi); }

Rng Rng::split() { return Rng(next_u64()); }

Rng Rng::stream(std::uint64_t stream_id) const {
  std::uint64_t x = seed_ ^ stream_id;
  return Rng(splitmix64(x));
}

}  // namespace mobiwlan
