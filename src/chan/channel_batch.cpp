#include "chan/channel_batch.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/fastmath.hpp"
#include "util/lane_math.hpp"
#include "util/simd.hpp"
#include "util/simd_math.hpp"
#include "util/units.hpp"

namespace mobiwlan {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kLog2Ten_Over20 = 0.16609640474436813;  // log2(10)/20
constexpr double kLog2Ten_Over10 = 0.33219280948873623;  // log2(10)/10
constexpr double kInvLn10 = 0.43429448190325176;         // 1/ln(10)

// sqrt(dx^2 + dy^2) instead of Vec2::norm()'s std::hypot: the overflow
// protection hypot buys costs ~7x at these magnitudes, and floor-plan
// coordinates are metres — squares cannot overflow. ~1 ulp apart.
double fast_distance(Vec2 a, Vec2 b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double sin_checked(double x) {
  if (std::abs(x) > fastmath::kSincosWideMaxArg) [[unlikely]]
    return std::sin(x);
  return fastmath::sin_wide(x);
}

// 10 * log10(mw) / 10^(db/10) with the fastmath kernels in place of a libm
// log10 + pow per sample.
double fast_mw_to_dbm(double mw) { return 10.0 * fastmath::log10_pos(mw); }
double fast_db_to_linear(double db) { return std::exp2(db * kLog2Ten_Over10); }
double fast_noise_floor_dbm(const ChannelConfig& cfg) {
  return kThermalNoiseDbmPerHz + 10.0 * fastmath::log10_pos(cfg.bandwidth_hz) +
         cfg.noise_figure_db;
}

/// Total received power (mW) across paths.
double total_power_mw(const std::vector<ChannelBatch::PathGeometry>& paths) {
  double sum = 0.0;
  for (const auto& p : paths) sum += p.amplitude * p.amplitude;
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

// Scalar fp64 chain fill — bitwise mirror of fill_base_avx2 below: the same
// four 4-lane block chains stepping by step^16, with every vector fmsub /
// fmadd restated as an explicit std::fma. A non-AVX2 host therefore writes
// the exact phasor bits an AVX2 host writes, which is what lets the campus
// digests stay host-portable while the AVX2 kernels run where available.
void fill_base_lane(const PathChains& pc, double* bre, double* bim,
                    std::size_t n_sc) {
  double cr[4][4], ci[4][4];
  for (int l = 0; l < 4; ++l) {
    cr[0][l] = pc.br[l];
    ci[0][l] = pc.bi[l];
  }
  for (int j = 1; j < 4; ++j) {
    for (int l = 0; l < 4; ++l) {
      // fmsub(a, s4r, b*s4i) / fmadd(a, s4i, b*s4r), lane-for-lane.
      cr[j][l] = std::fma(cr[j - 1][l], pc.s4r, -(ci[j - 1][l] * pc.s4i));
      ci[j][l] = std::fma(cr[j - 1][l], pc.s4i, ci[j - 1][l] * pc.s4r);
    }
  }
  const double s8r = pc.s4r * pc.s4r - pc.s4i * pc.s4i;
  const double s8i = 2.0 * pc.s4r * pc.s4i;
  const double s16r = s8r * s8r - s8i * s8i;
  const double s16i = 2.0 * s8r * s8i;

  const std::size_t nbt = (n_sc + 3) / 4;  // blocks incl. a partial tail
  std::size_t b = 0;
  for (;;) {
    const std::size_t m = std::min<std::size_t>(4, nbt - b);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t sc = 4 * (b + j);
      for (std::size_t l = 0; l < 4 && sc + l < n_sc; ++l) {
        bre[sc + l] = cr[j][l];
        bim[sc + l] = ci[j][l];
      }
    }
    b += m;
    if (b >= nbt) break;
    for (int j = 0; j < 4; ++j) {
      for (int l = 0; l < 4; ++l) {
        const double nr = std::fma(cr[j][l], s16r, -(ci[j][l] * s16i));
        ci[j][l] = std::fma(cr[j][l], s16i, ci[j][l] * s16r);
        cr[j][l] = nr;
      }
    }
  }
}

// Scalar fp64 MAC — bitwise mirror of mac_block_avx2/fused_mac_avx2: same
// 4-subcarrier slices, same register-block pair grouping (nb <= 6), the
// accumulation restated as std::fma per lane, and the power reduced through
// four positional partial sums folded in fixed lane order. The remainder
// tail keeps the plain-multiply expressions the AVX2 kernel's own scalar
// tail uses.
void mac_block_lane(const double* base, const double* steer,
                    std::size_t n_paths, std::size_t n_pairs,
                    std::size_t pair0, std::size_t nb, std::size_t n_sc,
                    cplx* raw, double& power) {
  double pow_l[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_re[6][4], acc_im[6][4];
  std::size_t sc = 0;
  for (; sc + 4 <= n_sc; sc += 4) {
    for (std::size_t k = 0; k < nb; ++k) {
      for (int l = 0; l < 4; ++l) {
        acc_re[k][l] = 0.0;
        acc_im[k][l] = 0.0;
      }
    }
    for (std::size_t p = 0; p < n_paths; ++p) {
      const double* bplane = base + p * 2 * n_sc;
      const double* st = steer + (p * n_pairs + pair0) * 2;
      for (std::size_t k = 0; k < nb; ++k) {
        const double sr = st[2 * k];
        const double si = st[2 * k + 1];
        for (int l = 0; l < 4; ++l) {
          // fmadd(sr, b_re, fnmadd(si, b_im, acc)) lane-for-lane.
          acc_re[k][l] = std::fma(
              sr, bplane[sc + l], std::fma(-si, bplane[n_sc + sc + l],
                                           acc_re[k][l]));
          acc_im[k][l] = std::fma(
              sr, bplane[n_sc + sc + l],
              std::fma(si, bplane[sc + l], acc_im[k][l]));
        }
      }
    }
    for (std::size_t k = 0; k < nb; ++k) {
      for (int l = 0; l < 4; ++l) {
        raw[(pair0 + k) * n_sc + sc + l] = cplx{acc_re[k][l], acc_im[k][l]};
        pow_l[l] = std::fma(acc_re[k][l], acc_re[k][l],
                            std::fma(acc_im[k][l], acc_im[k][l], pow_l[l]));
      }
    }
  }
  power += pow_l[0] + pow_l[1] + pow_l[2] + pow_l[3];
  for (; sc < n_sc; ++sc) {
    for (std::size_t k = 0; k < nb; ++k) {
      double are = 0.0, aim = 0.0;
      for (std::size_t p = 0; p < n_paths; ++p) {
        const double* bplane = base + p * 2 * n_sc;
        const double sr = steer[(p * n_pairs + pair0 + k) * 2];
        const double si = steer[(p * n_pairs + pair0 + k) * 2 + 1];
        are += sr * bplane[sc] - si * bplane[n_sc + sc];
        aim += sr * bplane[n_sc + sc] + si * bplane[sc];
      }
      raw[(pair0 + k) * n_sc + sc] = cplx{are, aim};
      power += are * are + aim * aim;
    }
  }
}

void fused_mac_lane(const double* base, const double* steer,
                    std::size_t n_paths, std::size_t n_pairs, std::size_t n_sc,
                    cplx* raw, double& power) {
  power = 0.0;
  for (std::size_t pair0 = 0; pair0 < n_pairs; pair0 += 6)
    mac_block_lane(base, steer, n_paths, n_pairs, pair0,
                   std::min<std::size_t>(6, n_pairs - pair0), n_sc, raw,
                   power);
}

// amp_lane — one lane of vamp_n: the log-distance amplitude pipeline with
// the lane-exact log/exp2 mirrors and the vector's exact expression order.
double amp_lane(double len, double extra, double base_db, double coef) {
  const double l = std::max(len, 1.0);
  const double lg = lanemath::log_pos(l) * kInvLn10;
  const double db = (base_db - extra) - coef * lg;
  return lanemath::exp2(db * kLog2Ten_Over20);
}

#if defined(__x86_64__)

// Vector recurrence with four independent 4-lane block chains stepping by
// step^16: the serial dependency that latency-binds the scalar recurrence is
// split four ways, so the chain multiplies pipeline. Association differs
// from the scalar chain by a handful of rounding steps (~1e-15 relative),
// inside the batch's 1e-12 equivalence budget.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void fill_base_avx2(const PathChains& pc,
                                                        double* bre,
                                                        double* bim,
                                                        std::size_t n_sc) {
  __m256d c_re[4], c_im[4];
  c_re[0] = _mm256_loadu_pd(pc.br);
  c_im[0] = _mm256_loadu_pd(pc.bi);
  const __m256d s4r = _mm256_set1_pd(pc.s4r);
  const __m256d s4i = _mm256_set1_pd(pc.s4i);
  for (int j = 1; j < 4; ++j) {
    c_re[j] =
        _mm256_fmsub_pd(c_re[j - 1], s4r, _mm256_mul_pd(c_im[j - 1], s4i));
    c_im[j] =
        _mm256_fmadd_pd(c_re[j - 1], s4i, _mm256_mul_pd(c_im[j - 1], s4r));
  }
  const double s8r = pc.s4r * pc.s4r - pc.s4i * pc.s4i;
  const double s8i = 2.0 * pc.s4r * pc.s4i;
  const __m256d s16r = _mm256_set1_pd(s8r * s8r - s8i * s8i);
  const __m256d s16i = _mm256_set1_pd(2.0 * s8r * s8i);

  const std::size_t nbt = (n_sc + 3) / 4;  // blocks incl. a partial tail
  std::size_t b = 0;
  for (;;) {
    const std::size_t m = std::min<std::size_t>(4, nbt - b);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t sc = 4 * (b + j);
      if (sc + 4 <= n_sc) {
        _mm256_storeu_pd(bre + sc, c_re[j]);
        _mm256_storeu_pd(bim + sc, c_im[j]);
      } else {
        alignas(32) double tr[4], ti[4];
        _mm256_store_pd(tr, c_re[j]);
        _mm256_store_pd(ti, c_im[j]);
        for (std::size_t l = 0; sc + l < n_sc; ++l) {
          bre[sc + l] = tr[l];
          bim[sc + l] = ti[l];
        }
      }
    }
    b += m;
    if (b >= nbt) break;
    for (int j = 0; j < 4; ++j) {
      const __m256d nr =
          _mm256_fmsub_pd(c_re[j], s16r, _mm256_mul_pd(c_im[j], s16i));
      c_im[j] = _mm256_fmadd_pd(c_re[j], s16i, _mm256_mul_pd(c_im[j], s16r));
      c_re[j] = nr;
    }
  }
}

// Register-blocked fused MAC for one block of NB antenna pairs: all NB
// re/im accumulators for a 4-subcarrier slice stay in ymm registers while
// the path loop runs, and the slice is stored interleaved straight into the
// CsiMatrix. Per element the accumulation is
//   acc_re = fmadd(sr, b_re, fnmadd(si, b_im, acc_re))
//   acc_im = fmadd(sr, b_im, fmadd(si, b_re, acc_im))
// in path order — one accumulator per element, summed over paths in the
// same order on every tier. The wideband power accumulates during the store (order differs
// from CsiMatrix::mean_power; it only feeds the noise variance).
template <int NB>
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void mac_block_avx2(
    const double* base, const double* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t pair0, std::size_t n_sc, cplx* raw,
    double& power) {
  __m256d vpow = _mm256_setzero_pd();
  std::size_t sc = 0;
  for (; sc + 4 <= n_sc; sc += 4) {
    // The NB loops must fully unroll: only then do the accumulator arrays
    // get register-allocated (12 ymm accumulators + 4 operands fit the 16
    // AVX registers at NB == 6). Left rolled, GCC keeps them as stack
    // arrays and every FMA round-trips through memory.
    __m256d acc_re[NB], acc_im[NB];
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      acc_re[k] = _mm256_setzero_pd();
      acc_im[k] = _mm256_setzero_pd();
    }
    for (std::size_t p = 0; p < n_paths; ++p) {
      const double* bplane = base + p * 2 * n_sc;
      const __m256d b_re = _mm256_loadu_pd(bplane + sc);
      const __m256d b_im = _mm256_loadu_pd(bplane + n_sc + sc);
      const double* st = steer + (p * n_pairs + pair0) * 2;
#pragma GCC unroll 8
      for (int k = 0; k < NB; ++k) {
        const __m256d sr = _mm256_set1_pd(st[2 * k]);
        const __m256d si = _mm256_set1_pd(st[2 * k + 1]);
        acc_re[k] =
            _mm256_fmadd_pd(sr, b_re, _mm256_fnmadd_pd(si, b_im, acc_re[k]));
        acc_im[k] =
            _mm256_fmadd_pd(sr, b_im, _mm256_fmadd_pd(si, b_re, acc_im[k]));
      }
    }
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      const __m256d lo = _mm256_unpacklo_pd(acc_re[k], acc_im[k]);
      const __m256d hi = _mm256_unpackhi_pd(acc_re[k], acc_im[k]);
      double* dst = reinterpret_cast<double*>(raw + (pair0 + k) * n_sc + sc);
      _mm256_storeu_pd(dst, _mm256_permute2f128_pd(lo, hi, 0x20));
      _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
      vpow = _mm256_fmadd_pd(acc_re[k], acc_re[k],
                             _mm256_fmadd_pd(acc_im[k], acc_im[k], vpow));
    }
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vpow);
  power += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; sc < n_sc; ++sc) {
    for (int k = 0; k < NB; ++k) {
      double are = 0.0, aim = 0.0;
      for (std::size_t p = 0; p < n_paths; ++p) {
        const double* bplane = base + p * 2 * n_sc;
        const double sr = steer[(p * n_pairs + pair0 + k) * 2];
        const double si = steer[(p * n_pairs + pair0 + k) * 2 + 1];
        are += sr * bplane[sc] - si * bplane[n_sc + sc];
        aim += sr * bplane[n_sc + sc] + si * bplane[sc];
      }
      raw[(pair0 + k) * n_sc + sc] = cplx{are, aim};
      power += are * are + aim * aim;
    }
  }
}

__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void fused_mac_avx2(
    const double* base, const double* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t n_sc, cplx* raw, double& power) {
  power = 0.0;
  for (std::size_t pair0 = 0; pair0 < n_pairs; pair0 += 6) {
    switch (std::min<std::size_t>(6, n_pairs - pair0)) {
      case 6:
        mac_block_avx2<6>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
      case 5:
        mac_block_avx2<5>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
      case 4:
        mac_block_avx2<4>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
      case 3:
        mac_block_avx2<3>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
      case 2:
        mac_block_avx2<2>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
      default:
        mac_block_avx2<1>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                          power);
        break;
    }
  }
}

// Staged 4-lane helpers over lane-padded arrays (n a multiple of 4).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void vsincos_n(const double* x,
                                                   std::size_t n, double* s,
                                                   double* c) {
  for (std::size_t i = 0; i < n; i += 4) {
    __m256d vs, vc;
    simdmath::vsincos(_mm256_loadu_pd(x + i), vs, vc);
    _mm256_storeu_pd(s + i, vs);
    _mm256_storeu_pd(c + i, vc);
  }
}

__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void vsqrt_n(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_sqrt_pd(_mm256_loadu_pd(x + i)));
}

// amp[i] = 10^((base_db - extra[i] - coef*log10(max(len[i], 1))) / 20) — the
// whole log-distance amplitude pipeline in one pass (via log_pos + exp2).
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void vamp_n(const double* len,
                                                const double* extra,
                                                std::size_t n, double base_db,
                                                double coef, double* amp) {
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t i = 0; i < n; i += 4) {
    const __m256d l = _mm256_max_pd(_mm256_loadu_pd(len + i), one);
    const __m256d lg =
        _mm256_mul_pd(simdmath::vlog_pos(l), _mm256_set1_pd(kInvLn10));
    const __m256d db = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_set1_pd(base_db), _mm256_loadu_pd(extra + i)),
        _mm256_mul_pd(_mm256_set1_pd(coef), lg));
    _mm256_storeu_pd(
        amp + i,
        simdmath::vexp2(_mm256_mul_pd(db, _mm256_set1_pd(kLog2Ten_Over20))));
  }
}

#endif  // __x86_64__

// ---------------------------------------------------------------------------
// fp32 plane tier. Same staging structure as the double path above, but the
// phasor planes, steering table and MAC run in float: 8 lanes under AVX2,
// 16 under AVX-512. What stays double, and why (the error budget is in
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

// Bring a (possibly carrier-scale) phase into the fp32 sincos domain with a
// double-precision Cody-Waite reduction mod 2pi; below the threshold the
// conversion alone is already exact to float rounding. The fused products
// keep the residual to ~k*1e-32 + 1 ulp — std::remainder would match, but
// its iterative libm implementation costs more than the whole fp32 sincos.
constexpr double kInvTwoPi = 0.15915494309189535;   // 1/(2pi)
constexpr double kTwoPiHi = 6.283185307179586;      // 2pi rounded to double
constexpr double kTwoPiLo = 2.4492935982947064e-16; // 2pi - kTwoPiHi
float reduce_phase_f32(double x) {
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
struct PathChainsF32 {
  float br[4];
  float bi[4];
  float s4r;
  float s4i;
};

PathChainsF32 seed_chains_f32(cplx start, cplx step) {
  const PathChains pc = seed_chains(start, step);
  PathChainsF32 out;
  for (int j = 0; j < 4; ++j) {
    out.br[j] = static_cast<float>(pc.br[j]);
    out.bi[j] = static_cast<float>(pc.bi[j]);
  }
  out.s4r = static_cast<float>(pc.s4r);
  out.s4i = static_cast<float>(pc.s4i);
  return out;
}

void fill_base_scalar_f32(const PathChainsF32& pc, float* bre, float* bim,
                          std::size_t n_sc) {
  float br[4], bi[4];
  for (int j = 0; j < 4; ++j) {
    br[j] = pc.br[j];
    bi[j] = pc.bi[j];
  }
  std::size_t sc = 0;
  for (; sc + 4 <= n_sc; sc += 4) {
    for (int j = 0; j < 4; ++j) {
      bre[sc + j] = br[j];
      bim[sc + j] = bi[j];
      const float nr = br[j] * pc.s4r - bi[j] * pc.s4i;
      bi[j] = br[j] * pc.s4i + bi[j] * pc.s4r;
      br[j] = nr;
    }
  }
  for (int j = 0; sc < n_sc; ++sc, ++j) {
    bre[sc] = br[j];
    bim[sc] = bi[j];
  }
}

#if defined(__x86_64__)

// 8-lane fp32 recurrence: seeds start*step^j for j = 0..3 computed in
// double (the serial dependency), lanes 4..7 derived with one fp32 vector
// complex multiply by step^4, one block chain stepping step^8. At most
// ceil(n_sc/8) - 1 fp32 chain steps, so rounding growth stays at a few
// ulp_f32.
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
  const cplx s2 = step * step;
  const cplx s4 = s2 * s2;
  const __m128 a_re = _mm_load_ps(sr);
  const __m128 a_im = _mm_load_ps(si);
  const __m128 v4r = _mm_set1_ps(static_cast<float>(s4.real()));
  const __m128 v4i = _mm_set1_ps(static_cast<float>(s4.imag()));
  const __m128 b_re = _mm_fmsub_ps(a_re, v4r, _mm_mul_ps(a_im, v4i));
  const __m128 b_im = _mm_fmadd_ps(a_re, v4i, _mm_mul_ps(a_im, v4r));
  c_re = _mm256_set_m128(b_re, a_re);
  c_im = _mm256_set_m128(b_im, a_im);
}

__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void fill_base_avx2_f32(
    cplx start, cplx step, float* bre, float* bim, std::size_t n_sc) {
  __m256 c_re, c_im;
  seed_lanes8_f32(start, step, c_re, c_im);
  const cplx s2 = step * step;
  const cplx s8 = (s2 * s2) * (s2 * s2);
  const __m256 v8r = _mm256_set1_ps(static_cast<float>(s8.real()));
  const __m256 v8i = _mm256_set1_ps(static_cast<float>(s8.imag()));
  std::size_t sc = 0;
  for (;;) {
    if (sc + 8 <= n_sc) {
      _mm256_storeu_ps(bre + sc, c_re);
      _mm256_storeu_ps(bim + sc, c_im);
    } else {
      alignas(32) float tr[8], ti[8];
      _mm256_store_ps(tr, c_re);
      _mm256_store_ps(ti, c_im);
      for (std::size_t l = 0; sc + l < n_sc; ++l) {
        bre[sc + l] = tr[l];
        bim[sc + l] = ti[l];
      }
    }
    sc += 8;
    if (sc >= n_sc) break;
    const __m256 nr = _mm256_fmsub_ps(c_re, v8r, _mm256_mul_ps(c_im, v8i));
    c_im = _mm256_fmadd_ps(c_re, v8i, _mm256_mul_ps(c_im, v8r));
    c_re = nr;
  }
}

// 16-lane fp32 recurrence (AVX-512): seeds start*step^j (j = 0..15) in
// double, one block chain stepping step^16.
__attribute__((target("avx2,fma,avx512f,avx512dq,avx512vl"), optimize("fp-contract=off"))) void
fill_base_avx512_f32(cplx start, cplx step, float* bre, float* bim,
                     std::size_t n_sc) {
  // Lanes 0..7 seeded like the AVX2 kernel (4 serial double multiplies plus
  // one 4-lane fp32 complex multiply by step^4); lanes 8..15 are that half
  // times step^8 — the serial seed chain stays 4 long instead of 16.
  __m256 lo_re, lo_im;
  seed_lanes8_f32(start, step, lo_re, lo_im);
  const cplx s2 = step * step;
  const cplx s4 = s2 * s2;
  const cplx s8 = s4 * s4;
  const cplx s16 = s8 * s8;
  const __m256 v8r = _mm256_set1_ps(static_cast<float>(s8.real()));
  const __m256 v8i = _mm256_set1_ps(static_cast<float>(s8.imag()));
  const __m256 hi_re =
      _mm256_fmsub_ps(lo_re, v8r, _mm256_mul_ps(lo_im, v8i));
  const __m256 hi_im =
      _mm256_fmadd_ps(lo_re, v8i, _mm256_mul_ps(lo_im, v8r));
  __m512 c_re = _mm512_insertf32x8(_mm512_castps256_ps512(lo_re), hi_re, 1);
  __m512 c_im = _mm512_insertf32x8(_mm512_castps256_ps512(lo_im), hi_im, 1);
  const __m512 v16r = _mm512_set1_ps(static_cast<float>(s16.real()));
  const __m512 v16i = _mm512_set1_ps(static_cast<float>(s16.imag()));
  std::size_t sc = 0;
  for (;;) {
    if (sc + 16 <= n_sc) {
      _mm512_storeu_ps(bre + sc, c_re);
      _mm512_storeu_ps(bim + sc, c_im);
    } else {
      alignas(64) float tr[16], ti[16];
      _mm512_store_ps(tr, c_re);
      _mm512_store_ps(ti, c_im);
      for (std::size_t l = 0; sc + l < n_sc; ++l) {
        bre[sc + l] = tr[l];
        bim[sc + l] = ti[l];
      }
    }
    sc += 16;
    if (sc >= n_sc) break;
    const __m512 nr = _mm512_fmsub_ps(c_re, v16r, _mm512_mul_ps(c_im, v16i));
    c_im = _mm512_fmadd_ps(c_re, v16i, _mm512_mul_ps(c_im, v16r));
    c_re = nr;
  }
}

// fp32 register-blocked MAC, 8 subcarriers per slice. Accumulators are
// float; the CsiMatrix store widens to double (cvtps_pd) so downstream
// consumers see the same cplx layout on every tier. Per-lane power partials
// stay fp32, the horizontal reduction is double.
template <int NB>
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void mac_block_avx2_f32(
    const float* base, const float* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t pair0, std::size_t n_sc, cplx* raw,
    double& power) {
  __m256 vpow = _mm256_setzero_ps();
  // Subcarrier counts that are not lane multiples take the remainder as one
  // *overlapped* full-width slice anchored at n_sc - 8: the overlapped
  // element stores are idempotent, and a lane mask keeps the overlap out of
  // the power sum. Only n_sc < 8 falls back to the scalar loop.
  const std::size_t full = n_sc & ~std::size_t{7};
  const std::size_t n_slices =
      (n_sc >= 8) ? full / 8 + (full != n_sc ? 1 : 0) : 0;
  for (std::size_t slice = 0; slice < n_slices; ++slice) {
    const std::size_t sc = std::min<std::size_t>(slice * 8, n_sc - 8);
    __m256 acc_re[NB], acc_im[NB];
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      acc_re[k] = _mm256_setzero_ps();
      acc_im[k] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < n_paths; ++p) {
      const float* bplane = base + p * 2 * n_sc;
      const __m256 b_re = _mm256_loadu_ps(bplane + sc);
      const __m256 b_im = _mm256_loadu_ps(bplane + n_sc + sc);
      const float* st = steer + (p * n_pairs + pair0) * 2;
#pragma GCC unroll 8
      for (int k = 0; k < NB; ++k) {
        const __m256 sr = _mm256_set1_ps(st[2 * k]);
        const __m256 si = _mm256_set1_ps(st[2 * k + 1]);
        acc_re[k] =
            _mm256_fmadd_ps(sr, b_re, _mm256_fnmadd_ps(si, b_im, acc_re[k]));
        acc_im[k] =
            _mm256_fmadd_ps(sr, b_im, _mm256_fmadd_ps(si, b_re, acc_im[k]));
      }
    }
    __m256 keep = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    if (slice * 8 != sc) {  // overlapped tail: mask lanes < overlap
      const __m256 idx = _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
      keep = _mm256_cmp_ps(
          idx, _mm256_set1_ps(static_cast<float>(slice * 8 - sc)),
          _CMP_GE_OQ);
    }
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      const __m256 lo = _mm256_unpacklo_ps(acc_re[k], acc_im[k]);
      const __m256 hi = _mm256_unpackhi_ps(acc_re[k], acc_im[k]);
      double* dst = reinterpret_cast<double*>(raw + (pair0 + k) * n_sc + sc);
      _mm256_storeu_pd(dst, _mm256_cvtps_pd(_mm256_castps256_ps128(lo)));
      _mm256_storeu_pd(dst + 4, _mm256_cvtps_pd(_mm256_castps256_ps128(hi)));
      _mm256_storeu_pd(dst + 8, _mm256_cvtps_pd(_mm256_extractf128_ps(lo, 1)));
      _mm256_storeu_pd(dst + 12,
                       _mm256_cvtps_pd(_mm256_extractf128_ps(hi, 1)));
      const __m256 pre = _mm256_and_ps(acc_re[k], keep);
      const __m256 pim = _mm256_and_ps(acc_im[k], keep);
      vpow = _mm256_fmadd_ps(pre, pre, _mm256_fmadd_ps(pim, pim, vpow));
    }
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vpow);
  for (float lane : lanes) power += static_cast<double>(lane);
  for (std::size_t sc = n_slices * 8; sc < n_sc; ++sc) {  // only n_sc < 8
    for (int k = 0; k < NB; ++k) {
      float are = 0.0f, aim = 0.0f;
      for (std::size_t p = 0; p < n_paths; ++p) {
        const float* bplane = base + p * 2 * n_sc;
        const float sr = steer[(p * n_pairs + pair0 + k) * 2];
        const float si = steer[(p * n_pairs + pair0 + k) * 2 + 1];
        are += sr * bplane[sc] - si * bplane[n_sc + sc];
        aim += sr * bplane[n_sc + sc] + si * bplane[sc];
      }
      raw[(pair0 + k) * n_sc + sc] = cplx{are, aim};
      power += static_cast<double>(are) * are + static_cast<double>(aim) * aim;
    }
  }
}

__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void fused_mac_avx2_f32(
    const float* base, const float* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t n_sc, cplx* raw, double& power) {
  power = 0.0;
  for (std::size_t pair0 = 0; pair0 < n_pairs; pair0 += 6) {
    switch (std::min<std::size_t>(6, n_pairs - pair0)) {
      case 6:
        mac_block_avx2_f32<6>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
      case 5:
        mac_block_avx2_f32<5>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
      case 4:
        mac_block_avx2_f32<4>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
      case 3:
        mac_block_avx2_f32<3>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
      case 2:
        mac_block_avx2_f32<2>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
      default:
        mac_block_avx2_f32<1>(base, steer, n_paths, n_pairs, pair0, n_sc, raw,
                              power);
        break;
    }
  }
}

// fp32 MAC, 16 subcarriers per slice (AVX-512). The interleaved double
// store uses permutex2var on the widened halves.
template <int NB>
__attribute__((target("avx512f,avx512dq,avx512vl"), optimize("fp-contract=off"))) void mac_block_avx512_f32(
    const float* base, const float* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t pair0, std::size_t n_sc, cplx* raw,
    double& power) {
  __m512 vpow = _mm512_setzero_ps();
  const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  // Remainder handled as one overlapped full-width slice at n_sc - 16 (see
  // mac_block_avx2_f32); scalar fallback only below 16 subcarriers.
  const std::size_t full = n_sc & ~std::size_t{15};
  const std::size_t n_slices =
      (n_sc >= 16) ? full / 16 + (full != n_sc ? 1 : 0) : 0;
  for (std::size_t slice = 0; slice < n_slices; ++slice) {
    const std::size_t sc = std::min<std::size_t>(slice * 16, n_sc - 16);
    __m512 acc_re[NB], acc_im[NB];
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      acc_re[k] = _mm512_setzero_ps();
      acc_im[k] = _mm512_setzero_ps();
    }
    for (std::size_t p = 0; p < n_paths; ++p) {
      const float* bplane = base + p * 2 * n_sc;
      const __m512 b_re = _mm512_loadu_ps(bplane + sc);
      const __m512 b_im = _mm512_loadu_ps(bplane + n_sc + sc);
      const float* st = steer + (p * n_pairs + pair0) * 2;
#pragma GCC unroll 8
      for (int k = 0; k < NB; ++k) {
        const __m512 sr = _mm512_set1_ps(st[2 * k]);
        const __m512 si = _mm512_set1_ps(st[2 * k + 1]);
        acc_re[k] =
            _mm512_fmadd_ps(sr, b_re, _mm512_fnmadd_ps(si, b_im, acc_re[k]));
        acc_im[k] =
            _mm512_fmadd_ps(sr, b_im, _mm512_fmadd_ps(si, b_re, acc_im[k]));
      }
    }
    __mmask16 keep = 0xffff;
    if (slice * 16 != sc)  // overlapped tail: drop lanes < overlap
      keep = static_cast<__mmask16>(0xffffu << (slice * 16 - sc));
#pragma GCC unroll 8
    for (int k = 0; k < NB; ++k) {
      const __m512d re_lo =
          _mm512_cvtps_pd(_mm512_castps512_ps256(acc_re[k]));
      const __m512d im_lo =
          _mm512_cvtps_pd(_mm512_castps512_ps256(acc_im[k]));
      const __m512d re_hi =
          _mm512_cvtps_pd(_mm512_extractf32x8_ps(acc_re[k], 1));
      const __m512d im_hi =
          _mm512_cvtps_pd(_mm512_extractf32x8_ps(acc_im[k], 1));
      double* dst = reinterpret_cast<double*>(raw + (pair0 + k) * n_sc + sc);
      _mm512_storeu_pd(dst, _mm512_permutex2var_pd(re_lo, idx_lo, im_lo));
      _mm512_storeu_pd(dst + 8, _mm512_permutex2var_pd(re_lo, idx_hi, im_lo));
      _mm512_storeu_pd(dst + 16,
                       _mm512_permutex2var_pd(re_hi, idx_lo, im_hi));
      _mm512_storeu_pd(dst + 24,
                       _mm512_permutex2var_pd(re_hi, idx_hi, im_hi));
      const __m512 pre = _mm512_maskz_mov_ps(keep, acc_re[k]);
      const __m512 pim = _mm512_maskz_mov_ps(keep, acc_im[k]);
      vpow = _mm512_fmadd_ps(pre, pre, _mm512_fmadd_ps(pim, pim, vpow));
    }
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, vpow);
  for (float lane : lanes) power += static_cast<double>(lane);
  for (std::size_t sc = n_slices * 16; sc < n_sc; ++sc) {  // only n_sc < 16
    for (int k = 0; k < NB; ++k) {
      float are = 0.0f, aim = 0.0f;
      for (std::size_t p = 0; p < n_paths; ++p) {
        const float* bplane = base + p * 2 * n_sc;
        const float sr = steer[(p * n_pairs + pair0 + k) * 2];
        const float si = steer[(p * n_pairs + pair0 + k) * 2 + 1];
        are += sr * bplane[sc] - si * bplane[n_sc + sc];
        aim += sr * bplane[n_sc + sc] + si * bplane[sc];
      }
      raw[(pair0 + k) * n_sc + sc] = cplx{are, aim};
      power += static_cast<double>(are) * are + static_cast<double>(aim) * aim;
    }
  }
}

__attribute__((target("avx512f,avx512dq,avx512vl"), optimize("fp-contract=off"))) void fused_mac_avx512_f32(
    const float* base, const float* steer, std::size_t n_paths,
    std::size_t n_pairs, std::size_t n_sc, cplx* raw, double& power) {
  power = 0.0;
  for (std::size_t pair0 = 0; pair0 < n_pairs; pair0 += 6) {
    switch (std::min<std::size_t>(6, n_pairs - pair0)) {
      case 6:
        mac_block_avx512_f32<6>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
      case 5:
        mac_block_avx512_f32<5>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
      case 4:
        mac_block_avx512_f32<4>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
      case 3:
        mac_block_avx512_f32<3>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
      case 2:
        mac_block_avx512_f32<2>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
      default:
        mac_block_avx512_f32<1>(base, steer, n_paths, n_pairs, pair0, n_sc,
                                raw, power);
        break;
    }
  }
}

// Staged fp32 sincos passes over lane-padded arrays.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void vsincos_n_f8(const float* x,
                                                      std::size_t n, float* s,
                                                      float* c) {
  for (std::size_t i = 0; i < n; i += 8) {
    __m256 vs, vc;
    simdmath::vsincos_f8(_mm256_loadu_ps(x + i), vs, vc);
    _mm256_storeu_ps(s + i, vs);
    _mm256_storeu_ps(c + i, vc);
  }
}

__attribute__((target("avx512f,avx512dq,avx512vl"), optimize("fp-contract=off"))) void vsincos_n_f16(
    const float* x, std::size_t n, float* s, float* c) {
  for (std::size_t i = 0; i < n; i += 16) {
    __m512 vs, vc;
    simdmath::vsincos_f16(_mm512_loadu_ps(x + i), vs, vc);
    _mm512_storeu_ps(s + i, vs);
    _mm512_storeu_ps(c + i, vc);
  }
}

#endif  // __x86_64__

std::size_t pad4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }
std::size_t pad16(std::size_t n) { return (n + 15) & ~std::size_t{15}; }

}  // namespace

struct ChannelBatch::SynthSpec {
  simd::Tier tier = simd::Tier::kScalar;  ///< dispatch, resolved per range call
  bool avx2 = false;                      ///< tier >= kAvx2 (geometry pass)
  bool fp32 = false;                      ///< float32 plane tier active

  static SynthSpec resolve() {
    const simd::Tier tier = simd::active_tier();
    return SynthSpec{tier, tier >= simd::Tier::kAvx2,
                     simd::active_precision() == simd::Precision::kFloat32};
  }
};

// Wide-argument geometry pass: the shared bail-out when any oscillator
// argument exceeds the fastmath range (huge t or client coordinates). Both
// tiers funnel here on exactly the same inputs (same max-|arg| check), so
// the libm fallback stays tier-invariant by construction. Uses the
// extended-range fastmath kernels in place of libm (sin, hypot, log10,
// pow): every value agrees to well under 1e-12 relative with libm.
void ChannelBatch::geometries_wide(const WirelessChannel& ch, double t,
                                   Scratch& scratch) {
  const ChannelConfig& cfg = ch.config_;
  std::vector<PathGeometry>& paths = scratch.paths;
  paths.clear();
  paths.reserve(ch.scatterers_.size() + 1);

  const Vec2 client = ch.trajectory_->position(t);

  // Body shadowing gates every path equally (the body blocks the handset,
  // not a particular reflection).
  double shadow = 0.0;
  if (!ch.shadow_waves_.empty() && cfg.shadow_sigma_db != 0.0) {
    double sum = 0.0;
    for (const auto& w : ch.shadow_waves_)
      sum += sin_checked(w.k.dot(client) + w.phase);
    shadow = cfg.shadow_sigma_db * sum /
             std::sqrt(static_cast<double>(ch.shadow_waves_.size()) / 2.0);
  }

  // People walking near the link cross the direct path for a fraction of
  // each pacing cycle: a raised-power sinusoid pulse (narrow, smooth).
  double blockage = 0.0;
  for (const auto& s : ch.scatterers_) {
    if (s.blockage_depth_db == 0.0) continue;
    const double phase =
        sin_checked(2.0 * kPi * s.motion_freq_hz * t + s.motion_phase);
    const double pulse = std::max(0.0, phase);
    blockage += s.blockage_depth_db * pulse * pulse * pulse * pulse;
  }

  const double base_db = cfg.tx_power_dbm - cfg.ref_loss_db;
  auto amplitude_for = [&](double length_m, double extra_loss_db) {
    // Amplitude sqrt(dbm_to_mw(tx - ref - 10*n*log10(len) - extra))
    // == 10^((tx - ref - extra - 10*n*log10(len))/20), via exp2 and the
    // fastmath log10 instead of pow/log10.
    const double length = std::max(length_m, 1.0);
    return fastmath::db_to_amplitude(
        base_db - extra_loss_db -
        10.0 * cfg.path_loss_exponent * fastmath::log10_pos(length));
  };

  {
    PathGeometry los;
    los.length_m = fast_distance(ch.ap_pos_, client);
    const double obstruction =
        cfg.los_obstruction_db_per_m * std::max(0.0, los.length_m - 5.0);
    los.amplitude =
        amplitude_for(los.length_m, shadow + obstruction + blockage);
    los.phase0 = 0.0;
    const Vec2 d = client - ch.ap_pos_;
    // cos(atan2(y, x)) == x / hypot(x, y); the zero-length guard matches
    // cos(atan2(0, 0)) == 1.
    los.cos_aod = los.length_m > 0.0 ? d.x / los.length_m : 1.0;
    los.cos_aoa = los.length_m > 0.0 ? -d.x / los.length_m : 1.0;
    paths.push_back(los);
  }

  for (const auto& s : ch.scatterers_) {
    Vec2 sp = s.home;
    if (s.motion_amplitude_m != 0.0) {
      const double sway =
          s.motion_amplitude_m *
          sin_checked(2.0 * kPi * s.motion_freq_hz * t + s.motion_phase);
      sp = s.home + s.motion_dir * sway;
    }
    PathGeometry p;
    const double out_len = fast_distance(ch.ap_pos_, sp);
    const double in_len = fast_distance(sp, client);
    p.length_m = out_len + in_len;
    p.amplitude = amplitude_for(p.length_m, s.reflection_loss_db + shadow);
    p.phase0 = s.reflection_phase;
    const Vec2 out = sp - ch.ap_pos_;
    const Vec2 in = sp - client;
    p.cos_aod = out_len > 0.0 ? out.x / out_len : 1.0;
    p.cos_aoa = in_len > 0.0 ? in.x / in_len : 1.0;
    paths.push_back(p);
  }
}

// Scalar geometry pass — bitwise mirror of the staged AVX2 pass below. The
// staging order, the lane kernels (lanemath::sincos / log_pos / exp2 == one
// lane of vsincos / vlog_pos / vexp2), the shadow-sum order and the
// range-check that routes to geometries_wide are all identical, so a
// non-AVX2 host produces the same geometry bits as an AVX2 host.
void ChannelBatch::geometries_scalar(const WirelessChannel& ch, double t,
                                     Scratch& s) {
  const ChannelConfig& cfg = ch.config_;
  const std::size_t n_scat = ch.scatterers_.size();
  const std::size_t n_waves =
      (cfg.shadow_sigma_db != 0.0) ? ch.shadow_waves_.size() : 0;
  const Vec2 client = ch.trajectory_->position(t);

  // Stage 1: oscillator arguments + the same wide-argument bail as AVX2.
  const std::size_t n_osc = n_waves + n_scat;
  s.arg.resize(n_osc);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n_waves; ++i) {
    s.arg[i] = ch.shadow_waves_[i].k.dot(client) + ch.shadow_waves_[i].phase;
    max_abs = std::max(max_abs, std::abs(s.arg[i]));
  }
  for (std::size_t j = 0; j < n_scat; ++j) {
    const auto& sc = ch.scatterers_[j];
    s.arg[n_waves + j] = 2.0 * kPi * sc.motion_freq_hz * t + sc.motion_phase;
    max_abs = std::max(max_abs, std::abs(s.arg[n_waves + j]));
  }
  if (max_abs > fastmath::kSincosWideMaxArg) [[unlikely]] {
    geometries_wide(ch, t, s);
    return;
  }
  s.sinv.resize(n_osc);
  for (std::size_t i = 0; i < n_osc; ++i) {
    double c_unused;
    lanemath::sincos(s.arg[i], s.sinv[i], c_unused);
  }
  const double* mover_sin = s.sinv.data() + n_waves;

  double shadow = 0.0;
  if (n_waves != 0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n_waves; ++i) sum += s.sinv[i];
    shadow = cfg.shadow_sigma_db * sum /
             std::sqrt(static_cast<double>(n_waves) / 2.0);
  }
  double blockage = 0.0;
  for (std::size_t j = 0; j < n_scat; ++j) {
    const double depth = ch.scatterers_[j].blockage_depth_db;
    if (depth == 0.0) continue;
    const double pulse = std::max(0.0, mover_sin[j]);
    blockage += depth * pulse * pulse * pulse * pulse;
  }

  // Stage 2: leg squared lengths, then sqrt (correctly rounded on both
  // tiers, so a plain std::sqrt matches _mm256_sqrt_pd exactly).
  const std::size_t n_legs = 1 + 2 * n_scat;
  s.len.resize(n_legs);
  s.dxs.resize(n_legs);
  {
    const double dx = client.x - ch.ap_pos_.x;
    const double dy = client.y - ch.ap_pos_.y;
    s.len[0] = dx * dx + dy * dy;
    s.dxs[0] = dx;
  }
  for (std::size_t j = 0; j < n_scat; ++j) {
    const auto& sc = ch.scatterers_[j];
    Vec2 sp = sc.home;
    if (sc.motion_amplitude_m != 0.0) {
      const double sway = sc.motion_amplitude_m * mover_sin[j];
      sp = sc.home + sc.motion_dir * sway;
    }
    const double ox = sp.x - ch.ap_pos_.x;
    const double oy = sp.y - ch.ap_pos_.y;
    const double ix = sp.x - client.x;
    const double iy = sp.y - client.y;
    s.len[1 + 2 * j] = ox * ox + oy * oy;
    s.dxs[1 + 2 * j] = ox;
    s.len[2 + 2 * j] = ix * ix + iy * iy;
    s.dxs[2 + 2 * j] = ix;
  }
  for (std::size_t i = 0; i < n_legs; ++i) s.len[i] = std::sqrt(s.len[i]);

  // Stage 3: per-path lengths / extra losses and the amplitude pipeline
  // (one lane of vamp_n per path).
  const std::size_t n_paths = n_scat + 1;
  const double base_db = cfg.tx_power_dbm - cfg.ref_loss_db;
  const double coef = 10.0 * cfg.path_loss_exponent;
  const double los_len = s.len[0];
  std::vector<PathGeometry>& paths = s.paths;
  paths.clear();
  paths.reserve(n_paths);
  {
    PathGeometry los;
    los.length_m = los_len;
    const double extra =
        shadow + cfg.los_obstruction_db_per_m * std::max(0.0, los_len - 5.0) +
        blockage;
    los.amplitude = amp_lane(los_len, extra, base_db, coef);
    los.phase0 = 0.0;
    los.cos_aod = los_len > 0.0 ? s.dxs[0] / los_len : 1.0;
    los.cos_aoa = los_len > 0.0 ? -s.dxs[0] / los_len : 1.0;
    paths.push_back(los);
  }
  for (std::size_t j = 0; j < n_scat; ++j) {
    PathGeometry p;
    const double out_len = s.len[1 + 2 * j];
    const double in_len = s.len[2 + 2 * j];
    p.length_m = out_len + in_len;
    p.amplitude = amp_lane(
        p.length_m, ch.scatterers_[j].reflection_loss_db + shadow, base_db,
        coef);
    p.phase0 = ch.scatterers_[j].reflection_phase;
    p.cos_aod = out_len > 0.0 ? s.dxs[1 + 2 * j] / out_len : 1.0;
    p.cos_aoa = in_len > 0.0 ? s.dxs[2 + 2 * j] / in_len : 1.0;
    paths.push_back(p);
  }
}

void ChannelBatch::geometries(const WirelessChannel& ch, double t,
                              const SynthSpec& spec, Scratch& s) {
#if defined(__x86_64__)
  if (!spec.avx2) {
    geometries_scalar(ch, t, s);
    return;
  }
  // Staged vector pass: gather every oscillator argument / squared length /
  // loss exponent of the sample into lane-padded planes and run each
  // transcendental family once, 4 lanes at a time. Values agree with the
  // scalar pass to ~1 ulp per kernel (same fdlibm evaluation order), and
  // the per-scatterer pacing sine is computed once and shared between the
  // blockage pulse and the sway displacement (identical argument).
  const ChannelConfig& cfg = ch.config_;
  const std::size_t n_scat = ch.scatterers_.size();
  const std::size_t n_waves =
      (cfg.shadow_sigma_db != 0.0) ? ch.shadow_waves_.size() : 0;
  const Vec2 client = ch.trajectory_->position(t);

  // A realization with no moving/blocking scatterer (every campus channel:
  // structural reflectors only) consumes no pacing sine at all — its
  // oscillator args were exactly 0.0 and read by nobody, so dropping the
  // lanes changes neither the wide-fallback decision (zeros never set
  // max_abs) nor any consumed bit.
  bool movers = false;
  for (const auto& sc : ch.scatterers_)
    movers |= (sc.motion_amplitude_m != 0.0 || sc.blockage_depth_db != 0.0);

  // Stage 1: shadow-field and pacing oscillator arguments.
  const std::size_t n_osc = n_waves + (movers ? n_scat : 0);
  s.arg.resize(pad4(n_osc));
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n_waves; ++i) {
    s.arg[i] = ch.shadow_waves_[i].k.dot(client) + ch.shadow_waves_[i].phase;
    max_abs = std::max(max_abs, std::abs(s.arg[i]));
  }
  for (std::size_t j = 0; movers && j < n_scat; ++j) {
    const auto& sc = ch.scatterers_[j];
    s.arg[n_waves + j] = 2.0 * kPi * sc.motion_freq_hz * t + sc.motion_phase;
    max_abs = std::max(max_abs, std::abs(s.arg[n_waves + j]));
  }
  if (max_abs > fastmath::kSincosWideMaxArg) [[unlikely]] {
    geometries_wide(ch, t, s);
    return;
  }
  for (std::size_t i = n_osc; i < s.arg.size(); ++i) s.arg[i] = 0.0;
  s.sinv.resize(s.arg.size());
  s.cosv.resize(s.arg.size());
  vsincos_n(s.arg.data(), s.arg.size(), s.sinv.data(), s.cosv.data());
  const double* mover_sin = s.sinv.data() + n_waves;

  double shadow = 0.0;
  if (n_waves != 0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n_waves; ++i) sum += s.sinv[i];
    shadow = cfg.shadow_sigma_db * sum /
             std::sqrt(static_cast<double>(n_waves) / 2.0);
  }
  double blockage = 0.0;
  for (std::size_t j = 0; j < n_scat; ++j) {
    const double depth = ch.scatterers_[j].blockage_depth_db;
    if (depth == 0.0) continue;
    const double pulse = std::max(0.0, mover_sin[j]);
    blockage += depth * pulse * pulse * pulse * pulse;
  }

  // Stage 2: leg vectors and squared lengths (index 0 = LOS, then the
  // out/in legs of each scatterer), then one vector sqrt pass.
  const std::size_t n_legs = 1 + 2 * n_scat;
  s.len.resize(pad4(n_legs));
  s.dxs.resize(pad4(n_legs));
  {
    const double dx = client.x - ch.ap_pos_.x;
    const double dy = client.y - ch.ap_pos_.y;
    s.len[0] = dx * dx + dy * dy;
    s.dxs[0] = dx;
  }
  for (std::size_t j = 0; j < n_scat; ++j) {
    const auto& sc = ch.scatterers_[j];
    Vec2 sp = sc.home;
    if (sc.motion_amplitude_m != 0.0) {
      const double sway = sc.motion_amplitude_m * mover_sin[j];
      sp = sc.home + sc.motion_dir * sway;
    }
    const double ox = sp.x - ch.ap_pos_.x;
    const double oy = sp.y - ch.ap_pos_.y;
    const double ix = sp.x - client.x;
    const double iy = sp.y - client.y;
    s.len[1 + 2 * j] = ox * ox + oy * oy;
    s.dxs[1 + 2 * j] = ox;
    s.len[2 + 2 * j] = ix * ix + iy * iy;
    s.dxs[2 + 2 * j] = ix;
  }
  for (std::size_t i = n_legs; i < s.len.size(); ++i) s.len[i] = 1.0;
  vsqrt_n(s.len.data(), s.len.size());

  // Stage 3: per-path total lengths and extra losses, then one vector
  // log10 + exp2 pass for every amplitude. arg/cosv are re-carved for the
  // per-path planes (their oscillator contents are fully consumed).
  const std::size_t n_paths = n_scat + 1;
  s.arg.resize(pad4(n_paths));   // per-path total length
  s.cosv.resize(pad4(n_paths));  // per-path extra loss (dB)
  const double los_len = s.len[0];
  s.arg[0] = los_len;
  s.cosv[0] = shadow +
              cfg.los_obstruction_db_per_m * std::max(0.0, los_len - 5.0) +
              blockage;
  for (std::size_t j = 0; j < n_scat; ++j) {
    s.arg[1 + j] = s.len[1 + 2 * j] + s.len[2 + 2 * j];
    s.cosv[1 + j] = ch.scatterers_[j].reflection_loss_db + shadow;
  }
  for (std::size_t i = n_paths; i < s.arg.size(); ++i) {
    s.arg[i] = 1.0;
    s.cosv[i] = 0.0;
  }
  s.amp.resize(s.arg.size());
  vamp_n(s.arg.data(), s.cosv.data(), s.arg.size(),
         cfg.tx_power_dbm - cfg.ref_loss_db, 10.0 * cfg.path_loss_exponent,
         s.amp.data());

  // Stage 4: assemble the PathGeometry records (LOS first, then one per
  // scatterer — identical ordering and angle conventions on every tier).
  std::vector<PathGeometry>& paths = s.paths;
  paths.clear();
  paths.reserve(n_paths);
  {
    PathGeometry los;
    los.length_m = los_len;
    los.amplitude = s.amp[0];
    los.phase0 = 0.0;
    los.cos_aod = los_len > 0.0 ? s.dxs[0] / los_len : 1.0;
    los.cos_aoa = los_len > 0.0 ? -s.dxs[0] / los_len : 1.0;
    paths.push_back(los);
  }
  for (std::size_t j = 0; j < n_scat; ++j) {
    PathGeometry p;
    const double out_len = s.len[1 + 2 * j];
    const double in_len = s.len[2 + 2 * j];
    p.length_m = s.arg[1 + j];
    p.amplitude = s.amp[1 + j];
    p.phase0 = ch.scatterers_[j].reflection_phase;
    p.cos_aod = out_len > 0.0 ? s.dxs[1 + 2 * j] / out_len : 1.0;
    p.cos_aoa = in_len > 0.0 ? s.dxs[2 + 2 * j] / in_len : 1.0;
    paths.push_back(p);
  }
#else
  (void)spec;
  geometries_scalar(ch, t, s);
#endif
}

void ChannelBatch::synthesize(const WirelessChannel& ch, const SynthSpec& spec,
                              Scratch& scratch, CsiMatrix& out,
                              double& power_mw) {
  if (spec.fp32) {
    synthesize_f32(ch, spec, scratch, out, power_mw);
    return;
  }
  const ChannelConfig& cfg = ch.config_;
  const std::size_t n_sc = cfg.n_subcarriers;
  const std::size_t n_pairs = cfg.n_tx * cfg.n_rx;
  const std::size_t n_paths = scratch.paths.size();
  out.resize_for_overwrite(cfg.n_tx, cfg.n_rx, n_sc);
  scratch.base.resize(n_paths * 2 * n_sc);
  scratch.steer.resize(n_paths * n_pairs * 2);
  const double half = static_cast<double>(n_sc - 1) / 2.0;

  // Per-path phase set {step, start, tx steering, rx steering} — staged as
  // one 4-lane sincos pass per path on the AVX2 path.
  scratch.arg.resize(4 * n_paths);
  scratch.sinv.resize(4 * n_paths);
  scratch.cosv.resize(4 * n_paths);
  bool wide_ok = true;
  for (std::size_t p = 0; p < n_paths; ++p) {
    const PathGeometry& path = scratch.paths[p];
    const double tau = path.length_m / kSpeedOfLight;
    const double centre_phase =
        -2.0 * kPi * cfg.carrier_hz * tau + path.phase0;
    scratch.arg[4 * p] = -2.0 * kPi * cfg.subcarrier_spacing_hz * tau;
    scratch.arg[4 * p + 1] =
        centre_phase + 2.0 * kPi * cfg.subcarrier_spacing_hz * tau * half;
    scratch.arg[4 * p + 2] = -kPi * path.cos_aod;
    scratch.arg[4 * p + 3] = -kPi * path.cos_aoa;
    if (std::abs(scratch.arg[4 * p + 1]) > fastmath::kSincosWideMaxArg)
      wide_ok = false;
  }
#if defined(__x86_64__)
  const bool vec = spec.avx2 && wide_ok;
  if (vec) {
    vsincos_n(scratch.arg.data(), 4 * n_paths, scratch.sinv.data(),
              scratch.cosv.data());
  }
#else
  const bool vec = false;
#endif
  if (!vec) {
    if (wide_ok) {
      // Bitwise mirror of the vsincos staging pass above.
      for (std::size_t i = 0; i < 4 * n_paths; ++i)
        lanemath::sincos(scratch.arg[i], scratch.sinv[i], scratch.cosv[i]);
    } else {
      // Out-of-range start phase: both tiers take this libm-backed loop
      // (the AVX2 tier also has vec == false here), so it stays invariant.
      for (std::size_t i = 0; i < 4 * n_paths; ++i) {
        const double x = scratch.arg[i];
        if (std::abs(x) > fastmath::kSincosWideMaxArg) [[unlikely]] {
          scratch.sinv[i] = std::sin(x);
          scratch.cosv[i] = std::cos(x);
        } else {
          fastmath::sincos_wide(x, scratch.sinv[i], scratch.cosv[i]);
        }
      }
    }
  }

  for (std::size_t p = 0; p < n_paths; ++p) {
    const double amp = scratch.paths[p].amplitude;
    const cplx step{scratch.cosv[4 * p], scratch.sinv[4 * p]};
    const cplx start{amp * scratch.cosv[4 * p + 1],
                     amp * scratch.sinv[4 * p + 1]};
    const PathChains pc = seed_chains(start, step);
    double* bplane = scratch.base.data() + p * 2 * n_sc;
#if defined(__x86_64__)
    if (spec.avx2)
      fill_base_avx2(pc, bplane, bplane + n_sc, n_sc);
    else
      fill_base_lane(pc, bplane, bplane + n_sc, n_sc);
#else
    fill_base_lane(pc, bplane, bplane + n_sc, n_sc);
#endif

    // ULA steering phasor power chains, one row of the steering table per
    // path — identical chain order on every tier.
    const cplx w_tx{scratch.cosv[4 * p + 2], scratch.sinv[4 * p + 2]};
    const cplx w_rx{scratch.cosv[4 * p + 3], scratch.sinv[4 * p + 3]};
    double* st = scratch.steer.data() + p * n_pairs * 2;
    cplx steer_tx{1.0, 0.0};
    for (std::size_t tx = 0; tx < cfg.n_tx; ++tx) {
      cplx steer = steer_tx;
      for (std::size_t rx = 0; rx < cfg.n_rx; ++rx) {
        *st++ = steer.real();
        *st++ = steer.imag();
        steer *= w_rx;
      }
      steer_tx *= w_tx;
    }
  }

  double power_sum = 0.0;
#if defined(__x86_64__)
  if (spec.avx2) {
    fused_mac_avx2(scratch.base.data(), scratch.steer.data(), n_paths,
                   n_pairs, n_sc, out.raw().data(), power_sum);
    power_mw = power_sum;
    return;
  }
#endif
  // Scalar fused MAC — bitwise mirror of fused_mac_avx2 (same slice /
  // register-block structure, std::fma accumulation, fixed-order power
  // reduction).
  fused_mac_lane(scratch.base.data(), scratch.steer.data(), n_paths, n_pairs,
                 n_sc, out.raw().data(), power_sum);
  power_mw = power_sum;
}

// The float32 plane tier of synthesize: same per-path staging, with the
// sincos pass, the phasor recurrence, the steering table and the MAC in
// fp32 (8-lane AVX2 / 16-lane AVX-512 / scalar float). The start phase is
// reduced mod 2pi in double before the float conversion — the one stage a
// float cannot survive — and chain seeds plus the steering power chains are
// evaluated in double from the fp32 sincos results, so scalar and vector
// fp32 tiers differ only in recurrence/MAC association (a few ulp_f32).
// CSI agrees with the fp64 path to <= 1e-4 scale-relative; the power sum
// feeding the noise variance reduces in double.
void ChannelBatch::synthesize_f32(const WirelessChannel& ch,
                                  const SynthSpec& spec, Scratch& scratch,
                                  CsiMatrix& out, double& power_mw) {
  const ChannelConfig& cfg = ch.config_;
  const std::size_t n_sc = cfg.n_subcarriers;
  const std::size_t n_pairs = cfg.n_tx * cfg.n_rx;
  const std::size_t n_paths = scratch.paths.size();
  out.resize_for_overwrite(cfg.n_tx, cfg.n_rx, n_sc);
  scratch.basef.resize(n_paths * 2 * n_sc);
  scratch.steerf.resize(n_paths * n_pairs * 2);
  const double half = static_cast<double>(n_sc - 1) / 2.0;

  // Per-path phase set {step, start, tx steering, rx steering}, computed in
  // double and reduced into the fp32 sincos domain. step and the steering
  // phases are already small (|x| <= pi + spacing*tau); only the start
  // phase carries the carrier term.
  const std::size_t n_args = 4 * n_paths;
  scratch.argf.resize(pad16(n_args));
  scratch.sinvf.resize(scratch.argf.size());
  scratch.cosvf.resize(scratch.argf.size());
  for (std::size_t p = 0; p < n_paths; ++p) {
    const PathGeometry& path = scratch.paths[p];
    const double tau = path.length_m / kSpeedOfLight;
    const double centre_phase =
        -2.0 * kPi * cfg.carrier_hz * tau + path.phase0;
    const double step_arg = -2.0 * kPi * cfg.subcarrier_spacing_hz * tau;
    const double start_arg =
        centre_phase + 2.0 * kPi * cfg.subcarrier_spacing_hz * tau * half;
    scratch.argf[4 * p] = reduce_phase_f32(step_arg);
    scratch.argf[4 * p + 1] = reduce_phase_f32(start_arg);
    scratch.argf[4 * p + 2] = static_cast<float>(-kPi * path.cos_aod);
    scratch.argf[4 * p + 3] = static_cast<float>(-kPi * path.cos_aoa);
  }
  for (std::size_t i = n_args; i < scratch.argf.size(); ++i)
    scratch.argf[i] = 0.0f;

#if defined(__x86_64__)
  if (spec.tier == simd::Tier::kAvx512) {
    vsincos_n_f16(scratch.argf.data(), scratch.argf.size(),
                  scratch.sinvf.data(), scratch.cosvf.data());
  } else if (spec.tier >= simd::Tier::kAvx2) {
    vsincos_n_f8(scratch.argf.data(), scratch.argf.size(),
                 scratch.sinvf.data(), scratch.cosvf.data());
  } else
#endif
  {
    for (std::size_t i = 0; i < n_args; ++i)
      fastmath::sincos_f32(scratch.argf[i], scratch.sinvf[i],
                           scratch.cosvf[i]);
  }

  for (std::size_t p = 0; p < n_paths; ++p) {
    const double amp = scratch.paths[p].amplitude;
    const cplx step{static_cast<double>(scratch.cosvf[4 * p]),
                    static_cast<double>(scratch.sinvf[4 * p])};
    const cplx start{amp * static_cast<double>(scratch.cosvf[4 * p + 1]),
                     amp * static_cast<double>(scratch.sinvf[4 * p + 1])};
    float* bplane = scratch.basef.data() + p * 2 * n_sc;
#if defined(__x86_64__)
    if (spec.tier == simd::Tier::kAvx512)
      fill_base_avx512_f32(start, step, bplane, bplane + n_sc, n_sc);
    else if (spec.tier >= simd::Tier::kAvx2)
      fill_base_avx2_f32(start, step, bplane, bplane + n_sc, n_sc);
    else
      fill_base_scalar_f32(seed_chains_f32(start, step), bplane,
                           bplane + n_sc, n_sc);
#else
    fill_base_scalar_f32(seed_chains_f32(start, step), bplane, bplane + n_sc,
                         n_sc);
#endif

    // Steering power chains in double (O(paths * pairs) — negligible),
    // stored as the fp32 steering table the MAC broadcasts from.
    const cplx w_tx{static_cast<double>(scratch.cosvf[4 * p + 2]),
                    static_cast<double>(scratch.sinvf[4 * p + 2])};
    const cplx w_rx{static_cast<double>(scratch.cosvf[4 * p + 3]),
                    static_cast<double>(scratch.sinvf[4 * p + 3])};
    float* st = scratch.steerf.data() + p * n_pairs * 2;
    cplx steer_tx{1.0, 0.0};
    for (std::size_t tx = 0; tx < cfg.n_tx; ++tx) {
      cplx steer = steer_tx;
      for (std::size_t rx = 0; rx < cfg.n_rx; ++rx) {
        *st++ = static_cast<float>(steer.real());
        *st++ = static_cast<float>(steer.imag());
        steer *= w_rx;
      }
      steer_tx *= w_tx;
    }
  }

  double power_sum = 0.0;
#if defined(__x86_64__)
  if (spec.tier == simd::Tier::kAvx512) {
    fused_mac_avx512_f32(scratch.basef.data(), scratch.steerf.data(), n_paths,
                         n_pairs, n_sc, out.raw().data(), power_sum);
    power_mw = power_sum;
    return;
  }
  if (spec.tier >= simd::Tier::kAvx2) {
    fused_mac_avx2_f32(scratch.basef.data(), scratch.steerf.data(), n_paths,
                       n_pairs, n_sc, out.raw().data(), power_sum);
    power_mw = power_sum;
    return;
  }
#endif
  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    for (std::size_t sc = 0; sc < n_sc; ++sc) {
      float are = 0.0f, aim = 0.0f;
      for (std::size_t p = 0; p < n_paths; ++p) {
        const float* bplane = scratch.basef.data() + p * 2 * n_sc;
        const float sr = scratch.steerf[(p * n_pairs + pair) * 2];
        const float si = scratch.steerf[(p * n_pairs + pair) * 2 + 1];
        are += sr * bplane[sc] - si * bplane[n_sc + sc];
        aim += sr * bplane[n_sc + sc] + si * bplane[sc];
      }
      out.raw()[pair * n_sc + sc] = cplx{are, aim};
      power_sum +=
          static_cast<double>(are) * are + static_cast<double>(aim) * aim;
    }
  }
  power_mw = power_sum;
}

// Measurement noise: the ACK is received at the link SNR, but the CSI
// estimator saturates around csi_snr_cap_db even at high signal levels. The
// mean CSI power comes from the power the MAC store pass accumulated.
void ChannelBatch::draw_csi_noise(WirelessChannel& ch, double link_snr_db,
                                  double csi_power_sum, CsiMatrix& csi) {
  const ChannelConfig& cfg = ch.config_;
  const double snr =
      std::min(link_snr_db + cfg.csi_processing_gain_db, cfg.csi_snr_cap_db);
  const double mean_pow = csi_power_sum / static_cast<double>(csi.raw().size());
  const double noise_var = mean_pow / fast_db_to_linear(snr);
  ch.rng_.add_complex_gaussian(csi.raw().data(), csi.raw().size(), noise_var);
}

void ChannelBatch::sample_one(WirelessChannel& ch, const SynthSpec& spec,
                              double t, ChannelSample& out, Scratch& scratch) {
  out.t = t;
  geometries(ch, t, spec, scratch);
  double csi_power_sum = 0.0;
  synthesize(ch, spec, scratch, out.csi, csi_power_sum);

  const ChannelConfig& cfg = ch.config_;
  const double signal_dbm = fast_mw_to_dbm(total_power_mw(scratch.paths));
  const double link_snr = signal_dbm - fast_noise_floor_dbm(cfg);
  draw_csi_noise(ch, link_snr, csi_power_sum, out.csi);

  const double raw_rssi = signal_dbm + ch.rng_.gaussian(0.0, cfg.rssi_noise_db);
  const double q = cfg.rssi_quantum_db;
  out.rssi_dbm = std::round(raw_rssi / q) * q;
  out.snr_db = link_snr;

  // The LOS entry's length is exactly the AP-client distance.
  const double d = scratch.paths.front().length_m;
  const double rt_ns = 2.0 * d / kSpeedOfLight * 1e9;
  const double measured_ns =
      rt_ns + cfg.tof_bias_ns + ch.rng_.gaussian(0.0, cfg.tof_noise_ns);
  out.tof_cycles = std::round(measured_ns * 1e-9 * cfg.tof_clock_hz);
  out.true_distance_m = d;
}

void ChannelBatch::sample_link(WirelessChannel& ch, double t,
                               ChannelSample& out, Scratch& scratch) {
  sample_one(ch, SynthSpec::resolve(), t, out, scratch);
}

void ChannelBatch::csi_link(WirelessChannel& ch, double t, CsiMatrix& out,
                            Scratch& scratch) {
  const SynthSpec spec = SynthSpec::resolve();
  geometries(ch, t, spec, scratch);
  double csi_power_sum = 0.0;
  synthesize(ch, spec, scratch, out, csi_power_sum);
  const double link_snr = fast_mw_to_dbm(total_power_mw(scratch.paths)) -
                          fast_noise_floor_dbm(ch.config_);
  draw_csi_noise(ch, link_snr, csi_power_sum, out);
}

void ChannelBatch::csi_true_link(const WirelessChannel& ch, double t,
                                 CsiMatrix& out, Scratch& scratch) {
  const SynthSpec spec = SynthSpec::resolve();
  geometries(ch, t, spec, scratch);
  double csi_power_sum = 0.0;
  synthesize(ch, spec, scratch, out, csi_power_sum);
}

double ChannelBatch::rssi_link(WirelessChannel& ch, double t,
                               Scratch& scratch) {
  geometries(ch, t, SynthSpec::resolve(), scratch);
  const double raw = fast_mw_to_dbm(total_power_mw(scratch.paths)) +
                     ch.rng_.gaussian(0.0, ch.config_.rssi_noise_db);
  const double q = ch.config_.rssi_quantum_db;
  return std::round(raw / q) * q;
}

double ChannelBatch::snr_link(const WirelessChannel& ch, double t,
                              Scratch& scratch) {
  geometries(ch, t, SynthSpec::resolve(), scratch);
  return fast_mw_to_dbm(total_power_mw(scratch.paths)) -
         fast_noise_floor_dbm(ch.config_);
}

void ChannelBatch::sample_range(double t, std::size_t begin, std::size_t end,
                                ChannelSample* out, Scratch& scratch) {
  const SynthSpec spec = SynthSpec::resolve();
  for (std::size_t i = begin; i < end; ++i)
    if (links_[i] != nullptr) sample_one(*links_[i], spec, t, out[i], scratch);
}

void ChannelBatch::sample_slot(double t, std::size_t slot, ChannelSample& out,
                               Scratch& scratch) {
  sample_one(*links_[slot], SynthSpec::resolve(), t, out, scratch);
}

void ChannelBatch::rssi_all(double t, Scratch& scratch) {
  scratch.rssi.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    // Holes never win strongest_link.
    scratch.rssi[i] =
        links_[i] == nullptr ? -1e9 : rssi_link(*links_[i], t, scratch);
  }
}

void ChannelBatch::tof_all(double t, double* out) {
  for (std::size_t i = 0; i < links_.size(); ++i)
    if (links_[i] != nullptr) out[i] = links_[i]->tof_cycles(t);
}

std::size_t ChannelBatch::strongest_link(double t, Scratch& scratch) {
  rssi_all(t, scratch);
  std::size_t best = 0;
  double best_rssi = -1e9;
  for (std::size_t i = 0; i < scratch.rssi.size(); ++i) {
    if (scratch.rssi[i] > best_rssi) {
      best_rssi = scratch.rssi[i];
      best = i;
    }
  }
  return best;
}

}  // namespace mobiwlan
