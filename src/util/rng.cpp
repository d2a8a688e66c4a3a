#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/fastmath.hpp"
#include "util/lane4.hpp"
#include "util/simd.hpp"

namespace mobiwlan {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

#define MOBIWLAN_LANE4_BODY "util/rng_kernels.inc"
#include "util/lane4_tiers.inc"

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
  Rng* self = this;
  add_complex_gaussian_tile(&self, &dst, &n, &variance, 1);
}

void Rng::add_complex_gaussian_tile(Rng* const* gens,
                                    std::complex<double>* const* dst,
                                    const std::size_t* n,
                                    const double* variance, std::size_t m) {
  // The Box-Muller rounds run on the active tier, checked per call so
  // MOBIWLAN_SIMD_TIER and the simd test hook reach them; both tiers
  // compile that one body (util/rng_kernels.inc), so its bits do not depend
  // on the tier.
#if defined(__x86_64__)
  const auto round = simd::use_avx2fma() ? avx2_tier::box_muller_round
                                         : scalar_tier::box_muller_round;
#else
  const auto round = scalar_tier::box_muller_round;
#endif
  constexpr std::size_t kGroup = 16;  // generators per round
  for (std::size_t g0 = 0; g0 < m; g0 += kGroup) {
    const std::size_t gm = std::min(kGroup, m - g0);
    double per[kGroup];
    double* comp[kGroup];
    std::size_t k[kGroup], vec_end[kGroup], total[kGroup];
    std::size_t rounds = 0;
    for (std::size_t j = 0; j < gm; ++j) {
      Rng& r = *gens[g0 + j];
      // std::complex<double> is array-layout-compatible with double[2].
      comp[j] = reinterpret_cast<double*>(dst[g0 + j]);
      total[j] = 2 * n[g0 + j];
      per[j] = std::sqrt(variance[g0 + j] / 2.0);
      k[j] = 0;
      vec_end[j] = 0;
      if (total[j] == 0) continue;  // no draw: the cache stays pending
      // A pending cached deviate feeds the first component, exactly as a
      // gaussian() call would consume it; the pairing below then stays
      // shifted by one for the rest of the draw.
      if (r.has_cached_gaussian_) {
        r.has_cached_gaussian_ = false;
        comp[j][k[j]++] += per[j] * r.cached_gaussian_;
      }
      vec_end[j] = k[j] + 8 * ((total[j] - k[j]) / 8);
      rounds = std::max(rounds, (vec_end[j] - k[j]) / 8);
    }
    // The 8-aligned prefix: one Box-Muller block per generator per round,
    // each from its generator's next uniforms in the canonical order, u1
    // then u2 per transform.
    for (std::size_t b = 0; b < rounds; ++b) {
      double u[kGroup][8];
      double block_per[kGroup];
      double* block_comp[kGroup];
      std::size_t nb = 0;
      for (std::size_t j = 0; j < gm; ++j) {
        if (k[j] == vec_end[j]) continue;
        Rng& r = *gens[g0 + j];
        for (int l = 0; l < 4; ++l) {
          u[nb][l] = 1.0 - r.uniform();
          u[nb][4 + l] = r.uniform();
        }
        block_per[nb] = per[j];
        block_comp[nb] = comp[j] + k[j];
        k[j] += 8;
        ++nb;
      }
      round(u, block_per, block_comp, nb);
    }
    for (std::size_t j = 0; j < gm; ++j)
      if (total[j] != 0)
        gens[g0 + j]->add_gaussian_tail(comp[j], k[j], total[j], per[j]);
  }
}

void Rng::add_gaussian_tail(double* comp, std::size_t k, std::size_t total,
                            double per) {
  // The sub-8 remainder keeps the original fastmath kernels (those bits are
  // pinned by the golden fixtures). theta = 2*pi*u2 < 2*pi, well inside
  // fastmath::kSincosWideMaxArg; the inline kernel matches libm to ~2 ulp,
  // orders of magnitude below the 1e-12 equivalence budget on noise
  // components (~1e-5 in magnitude).
  while (total - k >= 2) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    double s, c;
    fastmath::sincos_wide(theta, s, c);
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
    fastmath::sincos_wide(theta, s, c);
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
