// channel_batch.hpp — the channel engine.
//
// Every CSI, RSSI and SNR read in the repository is synthesized here, for
// one link or for N links in one structure-of-arrays pass. A
// WirelessChannel holds only a link's realization and RNG; ChannelBatch
// reads that state, computes the path geometry, synthesizes CSI and draws
// the link's measurement noise. Two ways in:
//
//   * link entry points (sample_link, csi_link, csi_true_link, rssi_link,
//     snr_link) take any WirelessChannel, registered or not — the live
//     trace sources, the fault layer, CsiTrace::record and the by-value
//     WirelessChannel reads all use them;
//   * slot-indexed calls (sample_range, sample_slot, csi_into,
//     csi_true_into, rssi_all, tof_all, strongest_link) run over the links
//     registered with a batch — the campus shards, the deployment scan and
//     the scale bench. Each forwards per slot to the same kernels, so a
//     link's output does not depend on which way it was read.
//
// Kernel structure:
//   * the SIMD dispatch (`simd::active_tier()`) is resolved once per call,
//     not once per path;
//   * one scratch arena per *worker* holds the path geometries, the
//     path-major base-phasor planes and the ULA steering table for every
//     path of the link being synthesized, so the working set stays in L1
//     across a whole range;
//   * the steer x base multiply-accumulate runs as a register-blocked fused
//     kernel: all antenna-pair accumulators for a 4-subcarrier block live in
//     registers while the path loop runs, and the result is stored directly
//     into the CsiMatrix (interleaved);
//   * the wideband power needed for the CSI noise variance is accumulated
//     during that store instead of by a second pass over the matrix;
//   * geometry phases use the extended-range fastmath kernels
//     (fastmath::sincos_wide, log10_pos, db_to_amplitude).
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
// Thread safety: links may be partitioned across workers (e.g. via
// ThreadPool::parallel_for) as long as every worker owns a disjoint link
// range and its own Scratch — sampling mutates only per-link state (rng_)
// and the caller's buffers.
#pragma once

#include <cstddef>
#include <vector>

#include "chan/channel.hpp"
#include "phy/csi.hpp"

namespace mobiwlan {

/// The channel engine: static link entry points, plus a non-owning view over
/// N registered links for the slot-indexed calls.
class ChannelBatch {
 public:
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

  /// Per-worker workspace. All buffers grow to the largest path / antenna
  /// counts seen on first use and are reused thereafter: reading through a
  /// retained Scratch performs zero heap allocations in steady state.
  struct Scratch {
    std::vector<PathGeometry> paths;  ///< LOS first, then one per scatterer
    std::vector<double> base;   ///< path-major phasor planes: [path][re|im][sc]
    std::vector<double> steer;  ///< ULA steering phasors: [path][pair][re,im]
    std::vector<double> rssi;   ///< per-link RSSI plane for scans
    // Staging planes for the 4-lane transcendental passes (oscillator
    // arguments, squared lengths, loss exponents), padded to lane multiples.
    std::vector<double> arg, sinv, cosv, len, dxs, amp;
    // fp32 tier planes (simd::Precision::kFloat32): the phasor/steering
    // planes and the sincos staging in float, contiguous so the batch
    // kernel stays GPU-portable. Geometry (geom/len/dxs/amp) and the RSSI
    // plane stay double on every tier.
    std::vector<float> basef, steerf, argf, sinvf, cosvf;
  };

  ChannelBatch() = default;

  /// Registers a link and returns its slot. Slots are *stable*: a link
  /// keeps its slot until remove_link, and new links fill the most
  /// recently freed hole first (LIFO), else append. The channel must
  /// outlive its membership. Per-link sampling is independent, so slot
  /// order never affects any link's output — only which out[] element it
  /// lands in.
  std::size_t add_link(WirelessChannel* channel) {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      links_[slot] = channel;
      return slot;
    }
    links_.push_back(channel);
    // Every slot can become a hole, so growing the hole list alongside the
    // slot vector (amortized by capacity, O(log n) reallocations) makes
    // remove_link allocation-free — callers punch holes from hot loops.
    if (free_slots_.capacity() < links_.capacity())
      free_slots_.reserve(links_.capacity());
    return links_.size() - 1;
  }

  /// Frees a slot, leaving a hole the range calls skip. The slot is
  /// recycled by a later add_link.
  void remove_link(std::size_t slot) {
    links_[slot] = nullptr;
    free_slots_.push_back(slot);
  }

  /// Forgets every link and hole, keeping the registration buffers.
  void clear() {
    links_.clear();
    free_slots_.clear();
  }

  /// Slot count, holes included (the bound for the range calls).
  std::size_t size() const { return links_.size(); }
  /// Links registered (slots minus holes).
  std::size_t occupied() const { return links_.size() - free_slots_.size(); }
  bool is_hole(std::size_t i) const { return links_[i] == nullptr; }
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

  // -- slot-indexed calls over the registered links -------------------------

  /// Full observations for links [begin, end) at time t, into
  /// out[begin..end). Holes are skipped (their out element is left
  /// untouched). Allocation-free in steady state.
  void sample_range(double t, std::size_t begin, std::size_t end,
                    ChannelSample* out, Scratch& scratch);

  /// One slot's full observation. Lets a memory-bound caller interleave
  /// sampling with per-link consumption in one pass, so each link's working
  /// set is touched exactly once per epoch. `slot` must not be a hole.
  void sample_slot(double t, std::size_t slot, ChannelSample& out,
                   Scratch& scratch);

  /// Cache-hint for the link in `slot` (hole-safe no-op): issue it one slot
  /// ahead of sample_slot so the link's realization lines stream in under
  /// the current slot's synthesis.
  void prefetch_slot(std::size_t slot) const {
    if (const WirelessChannel* ch = links_[slot]) ch->prefetch();
  }

  /// csi_link for the link in slot i.
  void csi_into(std::size_t i, double t, CsiMatrix& out, Scratch& scratch) {
    csi_link(*links_[i], t, out, scratch);
  }

  /// csi_true_link for the link in slot i.
  void csi_true_into(std::size_t i, double t, CsiMatrix& out,
                     Scratch& scratch) const {
    csi_true_link(*links_[i], t, out, scratch);
  }

  /// rssi_link for every link at time t into scratch.rssi, in slot order —
  /// the roaming scan as one pass. Holes read -1e9.
  void rssi_all(double t, Scratch& scratch);

  /// One noisy ToF reading per link at time t into out[0..size()) — the
  /// neighbor-AP ToF sweep as one pass.
  void tof_all(double t, double* out);

  /// Link index with the strongest RSSI at time t (draws one RSSI reading
  /// per link, in link order, first wins on ties).
  std::size_t strongest_link(double t, Scratch& scratch);

 private:
  struct SynthSpec;  // resolved kernel + layout for one range call

  // The kernels are static: they touch only the passed link and scratch,
  // which is what lets the link entry points serve unregistered links.
  static void geometries(const WirelessChannel& ch, double t,
                         const SynthSpec& spec, Scratch& scratch);
  static void geometries_wide(const WirelessChannel& ch, double t,
                              Scratch& scratch);
  static void geometries_scalar(const WirelessChannel& ch, double t,
                                Scratch& scratch);
  static void synthesize(const WirelessChannel& ch, const SynthSpec& spec,
                         Scratch& scratch, CsiMatrix& out, double& power_mw);
  static void synthesize_f32(const WirelessChannel& ch, const SynthSpec& spec,
                             Scratch& scratch, CsiMatrix& out,
                             double& power_mw);
  static void sample_one(WirelessChannel& ch, const SynthSpec& spec, double t,
                         ChannelSample& out, Scratch& scratch);
  static void draw_csi_noise(WirelessChannel& ch, double link_snr_db,
                             double csi_power_sum, CsiMatrix& csi);

  std::vector<WirelessChannel*> links_;
  std::vector<std::size_t> free_slots_;  // LIFO recycled holes
};

}  // namespace mobiwlan
