// channel_batch.hpp — the channel engine.
//
// Every CSI, RSSI and SNR read in the repository is synthesized here, for
// one link or for N links in one structure-of-arrays pass. A
// WirelessChannel holds only a link's realization and RNG; ChannelBatch
// reads that state, computes the path geometry, synthesizes CSI and draws
// the link's measurement noise. Two ways in:
//
//   * link entry points (sample_link, sample_links, csi_link,
//     csi_true_link, rssi_link, snr_link) take any WirelessChannel,
//     registered or not — the campus shard passes (sample_links, one tile
//     of sessions per call), the live trace sources (and so every loop that
//     reads through an ObservableSource) and the by-value WirelessChannel
//     reads all use them;
//   * slot-indexed calls (sample_range, sample_slot) run over the links
//     registered with a batch — the scale_sample perf case and the
//     campus workload's per-slot probe.
//     Both run the same stage kernels, so a link's output does not depend
//     on which way it was read.
//
// Kernel structure:
//   * one staged body samples a tile of up to kTile links: geometry,
//     synthesis and noise each run once over planes that span the tile's
//     links, then each link takes its RSSI and ToF draws. Every link entry
//     point is the n = 1 case of that body, and the multi-link calls
//     (sample_links, sample_range) walk their links in kTile-link tiles;
//   * each call resolves the SIMD tier and the precision once, into a
//     kernel table: the stage kernels (sincos, sqrt, amplitude, phasor
//     fill, MAC, the fused one-pair fill + MAC) of that tier. Geometry and
//     synthesis each have one body that runs whatever the table holds, on
//     every tier and precision;
//   * one scratch arena per *worker* holds the tile's path geometries and
//     stage planes, the path-major base-phasor planes and the ULA steering
//     table of the link being synthesized, so the working set stays in L1
//     across a whole range;
//   * the steer x base multiply-accumulate runs as a register-blocked fused
//     kernel: all antenna-pair accumulators for a 4-subcarrier block live in
//     registers while the path loop runs, and the result is stored directly
//     into the CsiMatrix (interleaved). A one-pair link (steering entry
//     1+0i) fuses the phasor fill into that MAC, so no base plane is stored;
//   * the wideband power needed for the CSI noise variance is accumulated
//     during that store instead of by a second pass over the matrix;
//   * a phase past the fastmath range (huge t, coordinates or path
//     lengths) trips a per-link range check, and that link's share of the
//     stage's sincos plane then runs one shared scalar loop
//     (fastmath::sincos_wide, libm beyond it) on every tier.
//
// Numerical contract: the scalar, AVX2 and AVX-512 tiers agree with the
// golden fixtures (tests/chan/channel_golden_fixtures.inc, captured from
// the original libm implementation) to <= 1e-12. Every read of a link
// draws from that link's RNG in a fixed order — CSI noise, then RSSI
// jitter, then ToF jitter for a full sample — so a slot-indexed read and
// a link read of the same link state give the same bits.
//
// Precision tiers: the default (simd::Precision::kFloat64) holds the
// contract above. Under MOBIWLAN_PRECISION=fp32 the phasor planes, the
// steering table and the steer x base MAC run in float32 (8-lane AVX2 /
// 16-lane AVX-512), with an error-bounded contract instead: CSI agrees with
// the fp64 reference to <= 1e-4 scale-relative, while geometry and every
// RNG draw stay double so RSSI/ToF readings and RNG state remain *bitwise*
// identical across precision tiers. See DESIGN.md §5 "Precision tiers".
//
// Every stage kernel is elementwise over its plane and each link keeps its
// own RNG draw order, so a link's output does not depend on which tile, or
// which position in a tile, it was sampled in.
//
// Thread safety: links may be partitioned across workers (e.g. via
// ThreadPool::parallel_for) as long as every worker owns a disjoint link
// range and its own Scratch — sampling mutates only per-link state (rng_)
// and the caller's buffers.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "chan/channel.hpp"
#include "phy/csi.hpp"

namespace mobiwlan {

/// The channel engine: static link entry points, plus a non-owning view over
/// N registered links for the slot-indexed calls.
class ChannelBatch {
 public:
  /// Links per staged tile: the multi-link calls sample their links kTile
  /// at a time, each stage once per tile.
  static constexpr std::size_t kTile = 16;

  /// Geometry of one propagation path at a time instant. Steering angles
  /// are carried as cosines (the only form the ULA phase terms need),
  /// computed as coordinate ratios instead of cos(atan2(...)).
  struct PathGeometry {
    double length_m;   // total propagation length
    double amplitude;  // sqrt(mW) received amplitude
    double phase0;     // reflection phase offset
    double cos_aod;    // cos(departure angle at the AP array)
    double cos_aoa;    // cos(arrival angle at the client array)
  };

  /// Per-worker workspace. All buffers grow to the largest tile seen on
  /// first use (or to reserve()'s bound) and are reused thereafter: reading
  /// through a retained Scratch performs zero heap allocations in steady
  /// state.
  struct Scratch {
    /// Synthesis planes at one precision: the tile's per-path sincos
    /// staging, and one link's path-major phasor planes [path][re|im][sc]
    /// and ULA steering table [path][pair][re,im]. The fp32 planes are
    /// contiguous floats so the batch kernel stays GPU-portable.
    template <typename T>
    struct Planes {
      std::vector<T> base, steer, arg, sinv, cosv;
    };

    /// Every tile link's paths, link after link (each LOS first, then one
    /// per scatterer): link i's are [tile_paths[i], tile_paths[i + 1]).
    std::vector<PathGeometry> paths;
    std::array<std::size_t, kTile + 1> tile_paths{};
    // Geometry staging planes over the tile (oscillator arguments, squared
    // lengths, per-path gains and loss coefficients), padded to lane
    // multiples. Geometry stays double on every precision tier.
    std::vector<double> arg, sinv, cosv, len, dxs, amp, coef;
    /// Wider-than-16-subcarrier accumulators of the fused one-pair MAC.
    std::vector<double> acc;
    Planes<double> f64;
    Planes<float> f32;  ///< simd::Precision::kFloat32

    /// Grows every buffer to what a tile of kTile links of `config`'s
    /// shape needs, at either precision, so the first read makes no
    /// allocation. Samples nothing.
    void reserve(const ChannelConfig& config);
  };

  ChannelBatch() = default;

  /// Registers a link and returns its slot (slots are dense, in
  /// registration order). The channel must outlive the batch. Per-link
  /// sampling is independent, so slot order never affects any link's
  /// output — only which out[] element it lands in.
  std::size_t add_link(WirelessChannel* channel) {
    links_.push_back(channel);
    return links_.size() - 1;
  }

  /// Link count (the bound for the range calls).
  std::size_t size() const { return links_.size(); }
  WirelessChannel& link(std::size_t i) { return *links_[i]; }
  const WirelessChannel& link(std::size_t i) const { return *links_[i]; }

  // -- link entry points: any WirelessChannel, registered or not ----------

  /// One full observation (CSI + RSSI + SNR + ToF). Draws CSI noise, then
  /// RSSI jitter, then ToF jitter from the link's RNG.
  static void sample_link(WirelessChannel& ch, double t, ChannelSample& out,
                          Scratch& scratch);

  /// Measured (noisy) CSI — the classifier cadence read. Draws CSI noise.
  static void csi_link(WirelessChannel& ch, double t, CsiMatrix& out,
                       Scratch& scratch);

  /// Noiseless CSI (no RNG draws).
  static void csi_true_link(const WirelessChannel& ch, double t,
                            CsiMatrix& out, Scratch& scratch);

  /// Quantized RSSI reading in dBm. Draws RSSI jitter.
  static double rssi_link(WirelessChannel& ch, double t, Scratch& scratch);

  /// True wideband SNR in dB (no RNG draws).
  static double snr_link(const WirelessChannel& ch, double t,
                         Scratch& scratch);

  /// Full observations of n distinct links at time t, into out[0..n): the
  /// staged body once per kTile-link tile. Each link's output and RNG draws
  /// are bitwise those of sample_link. Allocation-free in steady state.
  static void sample_links(WirelessChannel* const* links, std::size_t n,
                           double t, ChannelSample* out, Scratch& scratch);

  // -- slot-indexed calls over the registered links -------------------------

  /// Full observations for links [begin, end) at time t, into
  /// out[begin..end): sample_links over those slots, which must hold
  /// distinct links. Allocation-free in steady state.
  void sample_range(double t, std::size_t begin, std::size_t end,
                    ChannelSample* out, Scratch& scratch);

  /// One slot's full observation: sample_link for the link in `slot`.
  void sample_slot(double t, std::size_t slot, ChannelSample& out,
                   Scratch& scratch);

  /// Cache-hint for the link in `slot`: issue it one slot ahead of
  /// sample_slot so the link's realization lines stream in under the
  /// current slot's synthesis.
  void prefetch_slot(std::size_t slot) const { links_[slot]->prefetch(); }

 private:
  struct SynthSpec;  // the stage kernels one call runs

  // The kernels are static: they touch only the passed links and scratch,
  // which is what lets the link entry points serve unregistered links.
  // Each stage runs over a tile of n <= kTile links.
  static void geometries(const WirelessChannel* const* chs, std::size_t n,
                         double t, const SynthSpec& spec, Scratch& scratch);
  template <typename T>  // plane precision: double or float
  static void synthesize(const WirelessChannel* const* chs, std::size_t n,
                         const SynthSpec& spec, Scratch& scratch,
                         CsiMatrix* const* out, double* power_mw);
  /// The staged body: geometry, synthesis and CSI noise over the tile, into
  /// *csi[i]; then, when `full` is non-null, each link's RSSI and ToF draws
  /// complete full[i].
  static void sample_tile(WirelessChannel* const* chs, std::size_t n,
                          const SynthSpec& spec, double t,
                          CsiMatrix* const* csi, ChannelSample* full,
                          Scratch& scratch);

  std::vector<WirelessChannel*> links_;
};

}  // namespace mobiwlan
