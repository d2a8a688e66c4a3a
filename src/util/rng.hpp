// rng.hpp — deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in mobiwlan draws from an explicitly seeded Rng so
// that experiments are reproducible run-to-run; bench binaries derive one Rng
// per trial from a master seed.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace mobiwlan {

/// xoshiro256++ generator with splitmix64 seeding.
///
/// Chosen over std::mt19937 for speed and for a compact, well-defined state
/// that makes streams cheap to fork (`split()`), which the channel simulator
/// uses to give every multipath component an independent substream.
class Rng {
 public:
  /// Seeds the four words of state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output. Inline: the campus MAC loop draws ~20 of these
  /// per session-step, so the call overhead is measurable at scale.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl_(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 high bits of next_u64.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next_u64() % span);
  }

  /// Standard normal via Box-Muller (caches the second deviate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Exponential with the given mean. Requires mean > 0.
  double exponential(double mean);

  /// Rayleigh-distributed amplitude with scale sigma:
  /// the envelope of a complex Gaussian with per-component stddev sigma.
  double rayleigh(double sigma);

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  std::complex<double> complex_gaussian(double variance = 1.0);

  /// Adds an independent complex Gaussian draw to each of dst[0..n):
  /// value-for-value identical to `for i: dst[i] += complex_gaussian(v)`
  /// (same uniforms, same Box-Muller arithmetic, same cached-deviate
  /// handling), but with the transform inlined in one tight loop — the
  /// channel sampler adds noise to hundreds of CSI entries per sample, and
  /// the per-call overhead of gaussian() dominates otherwise.
  void add_complex_gaussian(std::complex<double>* dst, std::size_t n,
                            double variance = 1.0);

  /// add_complex_gaussian for m distinct generators in one draw: gens[j]
  /// adds to dst[j][0..n[j]) at variance[j] exactly what
  /// gens[j]->add_complex_gaussian(dst[j], n[j], variance[j]) would, with
  /// the same draws from that generator and the same cached-deviate
  /// handling. Each generator's uniforms keep their canonical order; the
  /// Box-Muller blocks run in rounds over the generators that still have
  /// one (so the generators' state chains interleave), then each
  /// generator's sub-8 remainder. add_complex_gaussian is the m = 1 case.
  static void add_complex_gaussian_tile(Rng* const* gens,
                                        std::complex<double>* const* dst,
                                        const std::size_t* n,
                                        const double* variance,
                                        std::size_t m);

  /// Complex sample with Rician statistics: a deterministic (LOS) component of
  /// power k/(k+1) plus scattered power 1/(k+1), unit total mean power.
  /// `k_factor` is linear (not dB).
  std::complex<double> rician(double k_factor);

  /// Uniform phase in [0, 2*pi).
  double phase();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p) { return uniform() < p; }

  /// Forks an independently-seeded generator from this stream.
  Rng split();

  /// Derives the generator for numbered substream `stream_id`.
  ///
  /// The substream seed is `splitmix64(seed ^ stream_id)` — a pure function
  /// of the construction seed and the id, never of generator state — so
  /// `stream(i)` yields the same generator no matter how many draws have been
  /// taken or in which order streams are derived. This is the counter-based
  /// derivation the runtime experiment runner uses to give every parallel
  /// job an execution-order-independent Rng.
  Rng stream(std::uint64_t stream_id) const;

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // The sub-8 remainder of one generator's noise draw: components
  // comp[k..total) after its Box-Muller blocks, with `per` the component
  // standard deviation.
  void add_gaussian_tail(double* comp, std::size_t k, std::size_t total,
                         double per);

  std::uint64_t seed_;
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace mobiwlan
