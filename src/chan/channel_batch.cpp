#include "chan/channel_batch.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <numbers>
#include <type_traits>

#include "util/fastmath.hpp"
#include "util/lane4.hpp"
#include "util/lanef.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace mobiwlan {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kLog2Ten_Over20 = 0.16609640474436813;  // log2(10)/20
constexpr double kLog2Ten_Over10 = 0.33219280948873623;  // log2(10)/10
constexpr double kInvLn10 = 0.43429448190325176;         // 1/ln(10)

// 10 * log10(mw) / 10^(db/10) with the fastmath kernels in place of a libm
// log10 + pow per sample.
double fast_mw_to_dbm(double mw) { return 10.0 * fastmath::log10_pos(mw); }
double fast_db_to_linear(double db) { return std::exp2(db * kLog2Ten_Over10); }
double fast_noise_floor_dbm(const ChannelConfig& cfg) {
  return kThermalNoiseDbmPerHz + 10.0 * fastmath::log10_pos(cfg.bandwidth_hz) +
         cfg.noise_figure_db;
}

/// Total received power (mW) across one link's paths, in path order.
double total_power_mw(const ChannelBatch::PathGeometry* paths,
                      std::size_t n_paths) {
  double sum = 0.0;
  for (std::size_t p = 0; p < n_paths; ++p)
    sum += paths[p].amplitude * paths[p].amplitude;
  return sum;
}

// Four interleaved per-subcarrier phasor chains (each stepping by step^4),
// seeded from the path's start phasor (the same seeding on every tier).
struct PathChains {
  double br[4];
  double bi[4];
  double s4r;
  double s4i;
};

PathChains seed_chains(cplx start, cplx step) {
  PathChains pc;
  pc.br[0] = start.real();
  pc.bi[0] = start.imag();
  const double sr1 = step.real();
  const double si1 = step.imag();
  for (int j = 1; j < 4; ++j) {
    pc.br[j] = pc.br[j - 1] * sr1 - pc.bi[j - 1] * si1;
    pc.bi[j] = pc.br[j - 1] * si1 + pc.bi[j - 1] * sr1;
  }
  const double s2r = sr1 * sr1 - si1 * si1;
  const double s2i = 2.0 * sr1 * si1;
  pc.s4r = s2r * s2r - s2i * s2i;
  pc.s4i = 2.0 * s2r * s2i;
  return pc;
}

// sincos for arguments that may exceed the fastmath range (huge t, client
// coordinates or path lengths): fastmath::sincos_wide up to
// kSincosWideMaxArg, libm above it. Every tier runs this one loop when a
// stage's range check trips, so the fallback is tier-invariant by
// construction. The fp32 planes never trip it: their phases are reduced
// into [-512, 512] before narrowing.
template <typename T>
void sincos_wide_n(const T* x, std::size_t n, T* s, T* c) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    double si, ci;
    if (std::abs(xi) > fastmath::kSincosWideMaxArg) [[unlikely]] {
      si = std::sin(xi);
      ci = std::cos(xi);
    } else {
      fastmath::sincos_wide(xi, si, ci);
    }
    s[i] = static_cast<T>(si);
    c[i] = static_cast<T>(ci);
  }
}

// One register block of the MAC: the NB antenna pairs from pair0 on, over
// every subcarrier, adding the block's wideband power to `power`.
template <typename T>
using MacBlockFn = void (*)(const T* base, const T* steer, std::size_t n_paths,
                            std::size_t n_pairs, std::size_t pair0,
                            std::size_t n_sc, cplx* raw, double& power);

// The register-blocked MAC over every antenna pair: blocks of six pairs,
// then the remainder as one narrower block. Blocks[nb - 1] is the kernel
// instantiated for width nb, so each block's accumulators stay in
// registers.
template <typename T, const MacBlockFn<T> (&Blocks)[6]>
void fused_mac(const T* base, const T* steer, std::size_t n_paths,
               std::size_t n_pairs, std::size_t n_sc, cplx* raw,
               double& power) {
  power = 0.0;
  for (std::size_t pair0 = 0; pair0 < n_pairs; pair0 += 6)
    Blocks[std::min<std::size_t>(6, n_pairs - pair0) - 1](
        base, steer, n_paths, n_pairs, pair0, n_sc, raw, power);
}

// The fp64 stage kernels: one body, compiled as scalar_tier:: and (on
// x86-64) avx2_tier::.
#define MOBIWLAN_LANE4_BODY "chan/channel_batch_kernels.inc"
#include "util/lane4_tiers.inc"

// ---------------------------------------------------------------------------
// fp32 plane kernels. synthesize<float> runs the same body as fp64, but the
// phasor planes, steering table and MAC are float: 8 lanes under AVX2, 16
// under AVX-512. What stays double, and why (the error budget is in
// DESIGN.md §5):
//   * geometry and amplitudes — RSSI/ToF derive from them bitwise;
//   * the start-phase reduction — a carrier-scale phase (~1e5 rad) carries
//     only ~1e-2 rad of precision as a float, so it is reduced mod 2pi in
//     double *before* the float conversion;
//   * chain seeds and the steering power chains — O(paths) work whose
//     double evaluation pins the fp32 error budget to the per-subcarrier
//     recurrence and MAC;
//   * the wideband power reduction — per-lane partial sums are fp32
//     (<= ~few hundred similar-magnitude terms), the horizontal reduction
//     and the noise-variance math are double.
// ---------------------------------------------------------------------------

// Narrows a double phase into the plane precision's sincos argument. fp64
// keeps it as is. fp32 brings a (possibly carrier-scale) phase into the
// fp32 sincos domain with a double-precision Cody-Waite reduction mod 2pi;
// below the threshold the conversion alone is already exact to float
// rounding. The fused products keep the residual to ~k*1e-32 + 1 ulp —
// std::remainder would match, but its iterative libm implementation costs
// more than the whole fp32 sincos.
constexpr double kInvTwoPi = 0.15915494309189535;   // 1/(2pi)
constexpr double kTwoPiHi = 6.283185307179586;      // 2pi rounded to double
constexpr double kTwoPiLo = 2.4492935982947064e-16; // 2pi - kTwoPiHi
template <typename T>
T narrow_phase(double x);

template <>
double narrow_phase<double>(double x) {
  return x;
}

template <>
float narrow_phase<float>(double x) {
  if (std::abs(x) > 512.0) {
    const double kd = std::nearbyint(x * kInvTwoPi);
    x = std::fma(-kd, kTwoPiHi, x);
    x = std::fma(-kd, kTwoPiLo, x);
  }
  return static_cast<float>(x);
}

// Scalar fp32 chain fill: the float port of the fp64 chain fill, seeded from
// the double chain seeds (so the scalar and vector fp32 tiers differ only
// in recurrence association, a few ulp_f32).
void fill_base_scalar_f32(cplx start, cplx step, float* bre, float* bim,
                          std::size_t n_sc) {
  const PathChains pc = seed_chains(start, step);
  const float s4r = static_cast<float>(pc.s4r);
  const float s4i = static_cast<float>(pc.s4i);
  float br[4], bi[4];
  for (int j = 0; j < 4; ++j) {
    br[j] = static_cast<float>(pc.br[j]);
    bi[j] = static_cast<float>(pc.bi[j]);
  }
  std::size_t sc = 0;
  for (; sc + 4 <= n_sc; sc += 4) {
    for (int j = 0; j < 4; ++j) {
      bre[sc + j] = br[j];
      bim[sc + j] = bi[j];
      const float nr = br[j] * s4r - bi[j] * s4i;
      bi[j] = br[j] * s4i + bi[j] * s4r;
      br[j] = nr;
    }
  }
  for (int j = 0; sc < n_sc; ++sc, ++j) {
    bre[sc] = br[j];
    bim[sc] = bi[j];
  }
}

void sincos_n_f32(const float* x, std::size_t n, float* s, float* c) {
  for (std::size_t i = 0; i < n; ++i) fastmath::sincos_f32(x[i], s[i], c[i]);
}

// One element of the fp32 MAC, pair `pair` at subcarrier `sc`: the float
// sum over paths in path order, stored into the CsiMatrix. Returns the
// element's power in double. The scalar tier runs it for every element, the
// vector tiers below W subcarriers.
double mac_element_f32(const float* base, const float* steer,
                       std::size_t n_paths, std::size_t n_pairs,
                       std::size_t pair, std::size_t n_sc, std::size_t sc,
                       cplx* raw) {
  float are = 0.0f, aim = 0.0f;
  for (std::size_t p = 0; p < n_paths; ++p) {
    const float* bplane = base + p * 2 * n_sc;
    const float sr = steer[(p * n_pairs + pair) * 2];
    const float si = steer[(p * n_pairs + pair) * 2 + 1];
    are += sr * bplane[sc] - si * bplane[n_sc + sc];
    aim += sr * bplane[n_sc + sc] + si * bplane[sc];
  }
  raw[pair * n_sc + sc] = cplx{are, aim};
  return static_cast<double>(are) * are + static_cast<double>(aim) * aim;
}

void mac_scalar_f32(const float* base, const float* steer,
                    std::size_t n_paths, std::size_t n_pairs, std::size_t n_sc,
                    cplx* raw, double& power) {
  power = 0.0;
  for (std::size_t pair = 0; pair < n_pairs; ++pair)
    for (std::size_t sc = 0; sc < n_sc; ++sc)
      power += mac_element_f32(base, steer, n_paths, n_pairs, pair, n_sc, sc,
                               raw);
}

#if defined(__x86_64__)

// z*z as {re*re - im*im, 2*re*im}: the bits of std::complex's product for
// finite z, without the alternating a*b - c*d / a*e + c*f pair that GCC may
// fuse into vfmaddsub despite fp-contract=off.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) inline cplx
square(cplx z) {
  return {z.real() * z.real() - z.imag() * z.imag(),
          2.0 * z.real() * z.imag()};
}

// Lanes 0..7 of the vector fp32 recurrence at both widths: seeds
// start*step^j for j = 0..3 computed in double (the serial dependency),
// lanes 4..7 derived with one fp32 vector complex multiply by step^4.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void seed_lanes8_f32(cplx start, cplx step,
                                                         __m256& c_re,
                                                         __m256& c_im) {
  alignas(16) float sr[4], si[4];
  cplx c = start;
  for (int j = 0; j < 4; ++j) {
    sr[j] = static_cast<float>(c.real());
    si[j] = static_cast<float>(c.imag());
    c *= step;
  }
  const cplx s2 = square(step);
  const cplx s4 = square(s2);
  const __m128 a_re = _mm_load_ps(sr);
  const __m128 a_im = _mm_load_ps(si);
  const __m128 v4r = _mm_set1_ps(static_cast<float>(s4.real()));
  const __m128 v4i = _mm_set1_ps(static_cast<float>(s4.imag()));
  const __m128 b_re = _mm_fmsub_ps(a_re, v4r, _mm_mul_ps(a_im, v4i));
  const __m128 b_im = _mm_fmadd_ps(a_re, v4i, _mm_mul_ps(a_im, v4r));
  c_re = _mm256_set_m128(b_re, a_re);
  c_im = _mm256_set_m128(b_im, a_im);
}

#endif  // __x86_64__

// The vector fp32 stage kernels: one body, compiled as avx2_f32:: (8
// lanes) and avx512_f32:: (16 lanes) on x86-64.
#define MOBIWLAN_LANEF_BODY "chan/channel_batch_f32_kernels.inc"
#include "util/lanef_tiers.inc"

// Pads a plane length to a multiple of `lanes` (a power of two), so the
// vector kernels never need a tail.
std::size_t pad(std::size_t n, std::size_t lanes) {
  return (n + lanes - 1) & ~(lanes - 1);
}

// The fp64 kernels run four lanes on every tier, so their staging planes
// are padded to a multiple of four.
constexpr std::size_t kF64Lanes = 4;

// A stage's sincos over a tile plane of n_pad lanes (a multiple of the
// kernel's `lanes`) whose link i owns lanes [off[i], off[i + 1]). Each link
// keeps its own range decision: a link with wide[i] runs sincos_wide_n over
// its lanes. The common tile has no such link and runs the kernel once over
// the whole plane. Otherwise the other links' lanes reach the kernel through
// a zero-padded chunk copy, so no out-of-range argument ever does (the
// kernels' debug range checks would trip on one). Every kernel is
// elementwise, so either way each lane gets the bits a per-link call gives.
template <typename T>
void tile_sincos(void (*kernel)(const T*, std::size_t, T*, T*),
                 std::size_t lanes, const T* x, std::size_t n_pad,
                 const std::size_t* off, const bool* wide, std::size_t n,
                 T* s, T* c) {
  if (std::none_of(wide, wide + n, [](bool w) { return w; })) {
    kernel(x, n_pad, s, c);
    return;
  }
  constexpr std::size_t kChunk = 64;  // a multiple of every kernel's lanes
  alignas(64) T cx[kChunk], cs[kChunk], cc[kChunk];
  for (std::size_t i = 0; i < n; ++i) {
    if (wide[i]) {
      sincos_wide_n(x + off[i], off[i + 1] - off[i], s + off[i], c + off[i]);
      continue;
    }
    for (std::size_t b = off[i]; b < off[i + 1]; b += kChunk) {
      const std::size_t m = std::min(kChunk, off[i + 1] - b);
      std::copy_n(x + b, m, cx);
      std::fill(cx + m, cx + kChunk, T{0});
      kernel(cx, pad(m, lanes), cs, cc);
      std::copy_n(cs, m, s + b);
      std::copy_n(cc, m, c + b);
    }
  }
}

// Stage kernels of one SIMD tier. Each stage body below runs whatever its
// tier's table holds; the fp64 kernels of every tier compile one source
// (chan/channel_batch_kernels.inc), so fp64 bits do not depend on the tier.
struct GeometryKernels {
  void (*sincos)(const double* x, std::size_t n, double* s, double* c);
  void (*sqrt)(double* x, std::size_t n);
  void (*amp)(const double* len, const double* gain, const double* coef,
              std::size_t n, double* amp);
};

template <typename T>
struct PlaneKernels {
  std::size_t lanes;  ///< the sincos plane is padded to a multiple of this
  void (*sincos)(const T* x, std::size_t n, T* s, T* c);
  void (*fill)(cplx start, cplx step, T* re, T* im, std::size_t n_sc);
  void (*mac)(const T* base, const T* steer, std::size_t n_paths,
              std::size_t n_pairs, std::size_t n_sc, cplx* raw,
              double& power);
  /// The fused fill + MAC of a one-pair link (steering entry 1+0i), which
  /// stores no base plane and reads no steering table; bitwise `fill` then
  /// `mac` at n_pairs == 1. Null where the tier has none (fp32), which
  /// then runs those two.
  void (*unit)(const T* cosv, const T* sinv,
               const ChannelBatch::PathGeometry* paths, std::size_t n_paths,
               std::size_t n_sc, double* acc, cplx* raw, double& power);
};

struct TierKernels {
  GeometryKernels geometry;  ///< fp64 on every precision tier
  PlaneKernels<double> f64;
  PlaneKernels<float> f32;
};

const TierKernels& tier_kernels(simd::Tier tier) {
  namespace s = scalar_tier;
  static constexpr TierKernels kScalar{
      {s::sincos_n, s::sqrt_n, s::amp_n},
      {kF64Lanes, s::sincos_n, s::fill_base,
       fused_mac<double, s::kMacBlocks>, s::unit_fill_mac},
      {1, sincos_n_f32, fill_base_scalar_f32, mac_scalar_f32, nullptr}};
#if defined(__x86_64__)
  namespace v = avx2_tier;
  static constexpr GeometryKernels kGeometryAvx2{v::sincos_n, v::sqrt_n,
                                                 v::amp_n};
  static constexpr PlaneKernels<double> kF64Avx2{
      kF64Lanes, v::sincos_n, v::fill_base, fused_mac<double, v::kMacBlocks>,
      v::unit_fill_mac};
  namespace f8 = avx2_f32;
  namespace f16 = avx512_f32;
  static constexpr TierKernels kAvx2{
      kGeometryAvx2, kF64Avx2,
      {f8::W, f8::sincos_n, f8::fill_base, fused_mac<float, f8::kMacBlocks>,
       nullptr}};
  static constexpr TierKernels kAvx512{
      kGeometryAvx2, kF64Avx2,
      {f16::W, f16::sincos_n, f16::fill_base,
       fused_mac<float, f16::kMacBlocks>, nullptr}};
  if (tier == simd::Tier::kAvx512) return kAvx512;
  if (tier == simd::Tier::kAvx2) return kAvx2;
#endif
  (void)tier;
  return kScalar;
}

// Scatterers a realization of `cfg` holds: the structural paths plus the
// activity's movers (WirelessChannel::build_realization).
std::size_t scatterer_count(const ChannelConfig& cfg) {
  int movers = 0;
  if (cfg.activity == EnvironmentalActivity::kWeak) movers = cfg.n_movers_weak;
  if (cfg.activity == EnvironmentalActivity::kStrong)
    movers = cfg.n_movers_strong;
  return cfg.n_paths + static_cast<std::size_t>(std::max(movers, 0));
}

// The 16-subcarrier chain rounds of the fused one-pair MAC.
std::size_t unit_rounds(std::size_t n_sc) { return (n_sc + 15) / 16; }

}  // namespace

// Every tier and precision decision of one call, made once: the tier picks
// the kernel table, the precision picks the plane type synthesize runs at.
struct ChannelBatch::SynthSpec {
  const TierKernels* kernels;
  void (*synthesize)(const WirelessChannel* const* chs, std::size_t n,
                     const SynthSpec& spec, Scratch& scratch,
                     CsiMatrix* const* out, double* power_mw);

  /// The tier's plane kernels at precision T.
  template <typename T>
  const PlaneKernels<T>& planes() const {
    if constexpr (std::is_same_v<T, float>)
      return kernels->f32;
    else
      return kernels->f64;
  }
  /// The scratch planes at precision T.
  template <typename T>
  static Scratch::Planes<T>& scratch_planes(Scratch& scratch) {
    if constexpr (std::is_same_v<T, float>)
      return scratch.f32;
    else
      return scratch.f64;
  }

  static SynthSpec resolve() {
    return SynthSpec{&tier_kernels(simd::active_tier()),
                     simd::active_precision() == simd::Precision::kFloat32
                         ? &ChannelBatch::synthesize<float>
                         : &ChannelBatch::synthesize<double>};
  }
};

void ChannelBatch::Scratch::reserve(const ChannelConfig& config) {
  const std::size_t n_scat = scatterer_count(config);
  const std::size_t n_paths = n_scat + 1;
  const std::size_t n_waves =
      static_cast<std::size_t>(std::max(config.shadow_waves, 0));
  const std::size_t n_pairs = config.n_tx * config.n_rx;
  const std::size_t stride =
      2 + (config.n_tx > 1 ? 1 : 0) + (config.n_rx > 1 ? 1 : 0);
  const std::size_t osc = pad(kTile * (n_waves + n_scat), kF64Lanes);
  const std::size_t per_path = pad(kTile * n_paths, kF64Lanes);
  for (auto* v : {&arg, &sinv, &cosv}) v->reserve(std::max(osc, per_path));
  for (auto* v : {&len, &dxs})
    v->reserve(pad(kTile * (1 + 2 * n_scat), kF64Lanes));
  for (auto* v : {&coef, &amp}) v->reserve(per_path);
  paths.reserve(kTile * n_paths);
  if (unit_rounds(config.n_subcarriers) > 1)
    acc.reserve(32 * unit_rounds(config.n_subcarriers));
  // 16 lanes covers every precision's plane padding.
  const std::size_t args = pad(kTile * stride * n_paths, 16);
  const auto reserve_planes = [&](auto& pl) {
    pl.base.reserve(n_paths * 2 * config.n_subcarriers);
    pl.steer.reserve(n_paths * n_pairs * 2);
    pl.arg.reserve(args);
    pl.sinv.reserve(args);
    pl.cosv.reserve(args);
  };
  reserve_planes(f64);
  reserve_planes(f32);
}

// Staged geometry pass over a tile: gather every link's oscillator
// arguments / squared lengths / per-path gains into lane-padded planes that
// span the tile, and run each transcendental family once through the
// tier's kernels. The per-scatterer pacing sine is computed once and shared
// between the blockage pulse and the sway displacement (identical
// argument). Link i's path geometries land in
// s.paths[s.tile_paths[i], s.tile_paths[i + 1]).
void ChannelBatch::geometries(const WirelessChannel* const* chs,
                              std::size_t n, double t, const SynthSpec& spec,
                              Scratch& s) {
  const GeometryKernels& k = spec.kernels->geometry;
  // Per link: the client position, the staged shadow waves, and whether
  // any scatterer moves or blocks. A realization with no moving/blocking
  // scatterer (every campus channel: structural reflectors only) consumes
  // no pacing sine at all — its oscillator args were exactly 0.0 and read
  // by nobody, so dropping the lanes changes neither the wide-argument
  // decision (zeros never set max_abs) nor any consumed bit.
  Vec2 client[kTile];
  std::size_t n_waves[kTile];
  bool movers[kTile];
  std::size_t osc[kTile + 1], leg[kTile + 1];
  std::size_t* path = s.tile_paths.data();
  osc[0] = leg[0] = path[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    const std::size_t n_scat = ch.scatterers_.size();
    n_waves[i] =
        (ch.config_.shadow_sigma_db != 0.0) ? ch.shadow_waves_.size() : 0;
    client[i] = ch.trajectory_->position(t);
    movers[i] = false;
    for (const auto& sc : ch.scatterers_)
      movers[i] |=
          (sc.motion_amplitude_m != 0.0 || sc.blockage_depth_db != 0.0);
    osc[i + 1] = osc[i] + n_waves[i] + (movers[i] ? n_scat : 0);
    leg[i + 1] = leg[i] + 1 + 2 * n_scat;
    path[i + 1] = path[i] + n_scat + 1;
  }

  // Stage 1: shadow-field and pacing oscillator arguments. Past the
  // fastmath range (huge t or client coordinates) a link's lanes take
  // sincos_wide_n instead of the tier's kernel.
  s.arg.resize(pad(osc[n], kF64Lanes));
  s.sinv.resize(s.arg.size());
  s.cosv.resize(s.arg.size());
  bool wide[kTile] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    double* arg = s.arg.data() + osc[i];
    double max_abs = 0.0;
    for (std::size_t w = 0; w < n_waves[i]; ++w) {
      arg[w] = ch.shadow_waves_[w].k.dot(client[i]) + ch.shadow_waves_[w].phase;
      max_abs = std::max(max_abs, std::abs(arg[w]));
    }
    for (std::size_t j = 0; movers[i] && j < ch.scatterers_.size(); ++j) {
      const auto& sc = ch.scatterers_[j];
      arg[n_waves[i] + j] = 2.0 * kPi * sc.motion_freq_hz * t + sc.motion_phase;
      max_abs = std::max(max_abs, std::abs(arg[n_waves[i] + j]));
    }
    wide[i] = max_abs > fastmath::kSincosWideMaxArg;
  }
  std::fill(s.arg.begin() + static_cast<std::ptrdiff_t>(osc[n]), s.arg.end(),
            0.0);
  tile_sincos(k.sincos, kF64Lanes, s.arg.data(), s.arg.size(), osc, wide, n,
              s.sinv.data(), s.cosv.data());

  double shadow[kTile], blockage[kTile];
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    const double* wave_sin = s.sinv.data() + osc[i];
    const double* mover_sin = wave_sin + n_waves[i];
    shadow[i] = 0.0;
    if (n_waves[i] != 0) {
      double sum = 0.0;
      for (std::size_t w = 0; w < n_waves[i]; ++w) sum += wave_sin[w];
      shadow[i] = ch.config_.shadow_sigma_db * sum /
                  std::sqrt(static_cast<double>(n_waves[i]) / 2.0);
    }
    blockage[i] = 0.0;
    for (std::size_t j = 0; j < ch.scatterers_.size(); ++j) {
      const double depth = ch.scatterers_[j].blockage_depth_db;
      if (depth == 0.0) continue;
      const double pulse = std::max(0.0, mover_sin[j]);
      blockage[i] += depth * pulse * pulse * pulse * pulse;
    }
  }

  // Stage 2: leg vectors and squared lengths (per link: index 0 = LOS, then
  // the out/in legs of each scatterer), then one sqrt pass.
  s.len.resize(pad(leg[n], kF64Lanes));
  s.dxs.resize(s.len.size());
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    double* len = s.len.data() + leg[i];
    double* dxs = s.dxs.data() + leg[i];
    const double* mover_sin = s.sinv.data() + osc[i] + n_waves[i];
    const double dx = client[i].x - ch.ap_pos_.x;
    const double dy = client[i].y - ch.ap_pos_.y;
    len[0] = dx * dx + dy * dy;
    dxs[0] = dx;
    for (std::size_t j = 0; j < ch.scatterers_.size(); ++j) {
      const auto& sc = ch.scatterers_[j];
      Vec2 sp = sc.home;
      if (sc.motion_amplitude_m != 0.0) {
        const double sway = sc.motion_amplitude_m * mover_sin[j];
        sp = sc.home + sc.motion_dir * sway;
      }
      const double ox = sp.x - ch.ap_pos_.x;
      const double oy = sp.y - ch.ap_pos_.y;
      const double ix = sp.x - client[i].x;
      const double iy = sp.y - client[i].y;
      len[1 + 2 * j] = ox * ox + oy * oy;
      dxs[1 + 2 * j] = ox;
      len[2 + 2 * j] = ix * ix + iy * iy;
      dxs[2 + 2 * j] = ix;
    }
  }
  std::fill(s.len.begin() + static_cast<std::ptrdiff_t>(leg[n]), s.len.end(),
            1.0);
  k.sqrt(s.len.data(), s.len.size());

  // Stage 3: per-path total lengths, gains (base_db minus the extra loss)
  // and loss coefficients, then one log10 + exp2 pass for every amplitude.
  // arg/cosv are re-carved for the per-path planes (their oscillator
  // contents are fully consumed).
  s.arg.resize(pad(path[n], kF64Lanes));  // per-path total length
  s.cosv.resize(s.arg.size());            // per-path gain (dB)
  s.coef.resize(s.arg.size());            // per-path loss coefficient
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    const ChannelConfig& cfg = ch.config_;
    const double base_db = cfg.tx_power_dbm - cfg.ref_loss_db;
    const double coef = 10.0 * cfg.path_loss_exponent;
    const double* len = s.len.data() + leg[i];
    double* total = s.arg.data() + path[i];
    double* gain = s.cosv.data() + path[i];
    const double los_len = len[0];
    total[0] = los_len;
    gain[0] = base_db -
              (shadow[i] +
               cfg.los_obstruction_db_per_m * std::max(0.0, los_len - 5.0) +
               blockage[i]);
    for (std::size_t j = 0; j < ch.scatterers_.size(); ++j) {
      total[1 + j] = len[1 + 2 * j] + len[2 + 2 * j];
      gain[1 + j] = base_db - (ch.scatterers_[j].reflection_loss_db + shadow[i]);
    }
    std::fill_n(s.coef.data() + path[i], path[i + 1] - path[i], coef);
  }
  for (std::size_t q = path[n]; q < s.arg.size(); ++q) {
    s.arg[q] = 1.0;
    s.cosv[q] = 0.0;
    s.coef[q] = 0.0;
  }
  s.amp.resize(s.arg.size());
  k.amp(s.arg.data(), s.cosv.data(), s.coef.data(), s.arg.size(),
        s.amp.data());

  // Stage 4: assemble the PathGeometry records (per link: LOS first, then
  // one per scatterer).
  s.paths.resize(path[n]);
  for (std::size_t i = 0; i < n; ++i) {
    const WirelessChannel& ch = *chs[i];
    const double* len = s.len.data() + leg[i];
    const double* dxs = s.dxs.data() + leg[i];
    const std::size_t q = path[i];
    PathGeometry* paths = s.paths.data() + q;
    const double los_len = len[0];
    paths[0].length_m = los_len;
    paths[0].amplitude = s.amp[q];
    paths[0].phase0 = 0.0;
    paths[0].cos_aod = los_len > 0.0 ? dxs[0] / los_len : 1.0;
    paths[0].cos_aoa = los_len > 0.0 ? -dxs[0] / los_len : 1.0;
    for (std::size_t j = 0; j < ch.scatterers_.size(); ++j) {
      PathGeometry& p = paths[1 + j];
      const double out_len = len[1 + 2 * j];
      const double in_len = len[2 + 2 * j];
      p.length_m = s.arg[q + 1 + j];
      p.amplitude = s.amp[q + 1 + j];
      p.phase0 = ch.scatterers_[j].reflection_phase;
      p.cos_aod = out_len > 0.0 ? dxs[1 + 2 * j] / out_len : 1.0;
      p.cos_aoa = in_len > 0.0 ? dxs[2 + 2 * j] / in_len : 1.0;
    }
  }
}

// Plane synthesis over a tile at precision T (double, or the fp32 tier:
// 8-lane AVX2 / 16-lane AVX-512 / scalar float). Every link's per-path
// phase set is staged into one plane and takes one sincos pass; each link
// then runs its fill and MAC (or, with one antenna pair, the fused
// one-pair kernel) into *out[i], with its CSI power in power_mw[i]. The
// phase set, the chain seeds and the steering power chains are computed in
// double on both precisions; only the argument narrowing and the tier's
// sincos, fill and MAC kernels see T. fp32 CSI agrees with fp64 to <= 1e-4
// scale-relative, and its power sum feeding the noise variance reduces in
// double.
template <typename T>
void ChannelBatch::synthesize(const WirelessChannel* const* chs,
                              std::size_t n, const SynthSpec& spec,
                              Scratch& scratch, CsiMatrix* const* out,
                              double* power_mw) {
  const PlaneKernels<T>& k = spec.planes<T>();
  Scratch::Planes<T>& pl = SynthSpec::scratch_planes<T>(scratch);
  const std::size_t* path = scratch.tile_paths.data();

  // Per-path phase set {step, start[, tx steering][, rx steering]},
  // computed in double and narrowed into T's sincos domain. A steering
  // phase is staged only for an array of more than one element: a
  // one-element array's only steering entry is 1 whatever the phase, so a
  // 1x1 link takes two sincos arguments per path instead of four. step and
  // the steering phases are small (|x| <= pi + spacing*tau); only the start
  // phase carries the carrier term, so only it can leave the fastmath range.
  const auto stride_of = [](const ChannelConfig& cfg) -> std::size_t {
    return 2 + (cfg.n_tx > 1 ? 1 : 0) + (cfg.n_rx > 1 ? 1 : 0);
  };
  std::size_t off[kTile + 1];
  off[0] = 0;
  for (std::size_t i = 0; i < n; ++i)
    off[i + 1] = off[i] + stride_of(chs[i]->config_) * (path[i + 1] - path[i]);
  pl.arg.resize(pad(off[n], k.lanes));
  pl.sinv.resize(pl.arg.size());
  pl.cosv.resize(pl.arg.size());
  bool wide[kTile] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const ChannelConfig& cfg = chs[i]->config_;
    const double half = static_cast<double>(cfg.n_subcarriers - 1) / 2.0;
    const std::size_t tx_lane = 2;
    const std::size_t rx_lane = cfg.n_tx > 1 ? 3 : 2;
    const std::size_t stride = stride_of(cfg);
    double max_abs = 0.0;
    for (std::size_t p = 0; p < path[i + 1] - path[i]; ++p) {
      const PathGeometry& g = scratch.paths[path[i] + p];
      const double tau = g.length_m / kSpeedOfLight;
      const double centre_phase = -2.0 * kPi * cfg.carrier_hz * tau + g.phase0;
      T* arg = pl.arg.data() + off[i] + stride * p;
      arg[0] = narrow_phase<T>(-2.0 * kPi * cfg.subcarrier_spacing_hz * tau);
      arg[1] = narrow_phase<T>(
          centre_phase + 2.0 * kPi * cfg.subcarrier_spacing_hz * tau * half);
      if (cfg.n_tx > 1) arg[tx_lane] = narrow_phase<T>(-kPi * g.cos_aod);
      if (cfg.n_rx > 1) arg[rx_lane] = narrow_phase<T>(-kPi * g.cos_aoa);
      max_abs = std::max(max_abs, std::abs(static_cast<double>(arg[1])));
    }
    wide[i] = max_abs > fastmath::kSincosWideMaxArg;
  }
  std::fill(pl.arg.begin() + static_cast<std::ptrdiff_t>(off[n]),
            pl.arg.end(), T{0});
  tile_sincos(k.sincos, k.lanes, pl.arg.data(), pl.arg.size(), off, wide, n,
              pl.sinv.data(), pl.cosv.data());

  for (std::size_t i = 0; i < n; ++i) {
    const ChannelConfig& cfg = chs[i]->config_;
    const std::size_t n_sc = cfg.n_subcarriers;
    const std::size_t n_pairs = cfg.n_tx * cfg.n_rx;
    const std::size_t n_paths = path[i + 1] - path[i];
    const PathGeometry* paths = scratch.paths.data() + path[i];
    const T* sinv = pl.sinv.data() + off[i];
    const T* cosv = pl.cosv.data() + off[i];
    out[i]->resize_for_overwrite(cfg.n_tx, cfg.n_rx, n_sc);
    if (n_pairs == 1 && k.unit != nullptr) {
      if (unit_rounds(n_sc) > 1) scratch.acc.resize(32 * unit_rounds(n_sc));
      k.unit(cosv, sinv, paths, n_paths, n_sc, scratch.acc.data(),
             out[i]->raw().data(), power_mw[i]);
      continue;
    }

    const std::size_t stride = stride_of(cfg);
    const std::size_t tx_lane = 2;
    const std::size_t rx_lane = cfg.n_tx > 1 ? 3 : 2;
    pl.base.resize(n_paths * 2 * n_sc);
    pl.steer.resize(n_paths * n_pairs * 2);
    const auto cos_at = [cosv, stride](std::size_t p, std::size_t lane) {
      return static_cast<double>(cosv[stride * p + lane]);
    };
    const auto sin_at = [sinv, stride](std::size_t p, std::size_t lane) {
      return static_cast<double>(sinv[stride * p + lane]);
    };
    for (std::size_t p = 0; p < n_paths; ++p) {
      const double amp = paths[p].amplitude;
      const cplx step{cos_at(p, 0), sin_at(p, 0)};
      const cplx start{amp * cos_at(p, 1), amp * sin_at(p, 1)};
      T* bplane = pl.base.data() + p * 2 * n_sc;
      k.fill(start, step, bplane, bplane + n_sc, n_sc);

      // ULA steering phasor power chains in double (O(paths * pairs) —
      // negligible), one row of the steering table per path — identical
      // chain order on every tier. An unstaged side's phasor only steps its
      // chain past the last entry, so 1+0i stands in for it.
      const cplx w_tx = cfg.n_tx > 1
                            ? cplx{cos_at(p, tx_lane), sin_at(p, tx_lane)}
                            : cplx{1.0, 0.0};
      const cplx w_rx = cfg.n_rx > 1
                            ? cplx{cos_at(p, rx_lane), sin_at(p, rx_lane)}
                            : cplx{1.0, 0.0};
      T* st = pl.steer.data() + p * n_pairs * 2;
      cplx steer_tx{1.0, 0.0};
      for (std::size_t tx = 0; tx < cfg.n_tx; ++tx) {
        cplx steer = steer_tx;
        for (std::size_t rx = 0; rx < cfg.n_rx; ++rx) {
          *st++ = static_cast<T>(steer.real());
          *st++ = static_cast<T>(steer.imag());
          steer *= w_rx;
        }
        steer_tx *= w_tx;
      }
    }
    k.mac(pl.base.data(), pl.steer.data(), n_paths, n_pairs, n_sc,
          out[i]->raw().data(), power_mw[i]);
  }
}

void ChannelBatch::sample_tile(WirelessChannel* const* chs, std::size_t n,
                               const SynthSpec& spec, double t,
                               CsiMatrix* const* csi, ChannelSample* full,
                               Scratch& scratch) {
  geometries(chs, n, t, spec, scratch);
  double csi_power[kTile];
  spec.synthesize(chs, n, spec, scratch, csi, csi_power);

  // Measurement noise: the ACK is received at the link SNR, but the CSI
  // estimator saturates around csi_snr_cap_db even at high signal levels.
  // The mean CSI power comes from the power the MAC store pass
  // accumulated. One tile draw: each link's uniforms in its own order.
  const std::size_t* path = scratch.tile_paths.data();
  double signal_dbm[kTile], link_snr[kTile], noise_var[kTile];
  Rng* gens[kTile];
  cplx* dst[kTile];
  std::size_t n_dst[kTile];
  for (std::size_t i = 0; i < n; ++i) {
    const ChannelConfig& cfg = chs[i]->config_;
    signal_dbm[i] = fast_mw_to_dbm(
        total_power_mw(scratch.paths.data() + path[i], path[i + 1] - path[i]));
    link_snr[i] = signal_dbm[i] - fast_noise_floor_dbm(cfg);
    const double snr = std::min(link_snr[i] + cfg.csi_processing_gain_db,
                                cfg.csi_snr_cap_db);
    n_dst[i] = csi[i]->raw().size();
    const double mean_pow = csi_power[i] / static_cast<double>(n_dst[i]);
    noise_var[i] = mean_pow / fast_db_to_linear(snr);
    gens[i] = &chs[i]->rng_;
    dst[i] = csi[i]->raw().data();
  }
  Rng::add_complex_gaussian_tile(gens, dst, n_dst, noise_var, n);
  if (full == nullptr) return;

  // Then each link's RSSI jitter and ToF jitter.
  for (std::size_t i = 0; i < n; ++i) {
    WirelessChannel& ch = *chs[i];
    const ChannelConfig& cfg = ch.config_;
    ChannelSample& out = full[i];
    out.t = t;
    const double raw_rssi =
        signal_dbm[i] + ch.rng_.gaussian(0.0, cfg.rssi_noise_db);
    const double q = cfg.rssi_quantum_db;
    out.rssi_dbm = std::round(raw_rssi / q) * q;
    out.snr_db = link_snr[i];

    // The LOS entry's length is exactly the AP-client distance.
    const double d = scratch.paths[path[i]].length_m;
    const double rt_ns = 2.0 * d / kSpeedOfLight * 1e9;
    const double measured_ns =
        rt_ns + cfg.tof_bias_ns + ch.rng_.gaussian(0.0, cfg.tof_noise_ns);
    out.tof_cycles = std::round(measured_ns * 1e-9 * cfg.tof_clock_hz);
    out.true_distance_m = d;
  }
}

void ChannelBatch::sample_link(WirelessChannel& ch, double t,
                               ChannelSample& out, Scratch& scratch) {
  WirelessChannel* link = &ch;
  CsiMatrix* csi = &out.csi;
  sample_tile(&link, 1, SynthSpec::resolve(), t, &csi, &out, scratch);
}

void ChannelBatch::sample_links(WirelessChannel* const* links, std::size_t n,
                                double t, ChannelSample* out,
                                Scratch& scratch) {
  const SynthSpec spec = SynthSpec::resolve();
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t m = std::min(kTile, n - i0);
    CsiMatrix* csi[kTile];
    for (std::size_t j = 0; j < m; ++j) csi[j] = &out[i0 + j].csi;
    sample_tile(links + i0, m, spec, t, csi, out + i0, scratch);
  }
}

void ChannelBatch::csi_link(WirelessChannel& ch, double t, CsiMatrix& out,
                            Scratch& scratch) {
  WirelessChannel* link = &ch;
  CsiMatrix* csi = &out;
  sample_tile(&link, 1, SynthSpec::resolve(), t, &csi, nullptr, scratch);
}

void ChannelBatch::csi_true_link(const WirelessChannel& ch, double t,
                                 CsiMatrix& out, Scratch& scratch) {
  const SynthSpec spec = SynthSpec::resolve();
  const WirelessChannel* link = &ch;
  CsiMatrix* csi = &out;
  double csi_power = 0.0;
  geometries(&link, 1, t, spec, scratch);
  spec.synthesize(&link, 1, spec, scratch, &csi, &csi_power);
}

double ChannelBatch::rssi_link(WirelessChannel& ch, double t,
                               Scratch& scratch) {
  const WirelessChannel* link = &ch;
  geometries(&link, 1, t, SynthSpec::resolve(), scratch);
  const double raw =
      fast_mw_to_dbm(total_power_mw(scratch.paths.data(),
                                    scratch.paths.size())) +
      ch.rng_.gaussian(0.0, ch.config_.rssi_noise_db);
  const double q = ch.config_.rssi_quantum_db;
  return std::round(raw / q) * q;
}

double ChannelBatch::snr_link(const WirelessChannel& ch, double t,
                              Scratch& scratch) {
  const WirelessChannel* link = &ch;
  geometries(&link, 1, t, SynthSpec::resolve(), scratch);
  return fast_mw_to_dbm(
             total_power_mw(scratch.paths.data(), scratch.paths.size())) -
         fast_noise_floor_dbm(ch.config_);
}

void ChannelBatch::sample_range(double t, std::size_t begin, std::size_t end,
                                ChannelSample* out, Scratch& scratch) {
  sample_links(links_.data() + begin, end - begin, t, out + begin, scratch);
}

void ChannelBatch::sample_slot(double t, std::size_t slot, ChannelSample& out,
                               Scratch& scratch) {
  sample_link(*links_[slot], t, out, scratch);
}

}  // namespace mobiwlan
