// channel.hpp — the testbed substitute: a geometric indoor multipath channel.
//
// This module replaces the paper's physical testbed (HP MSM 460 APs + Galaxy
// S5 clients in two office buildings). The channel model produces exactly
// the PHY observables the AP firmware exported — per-subcarrier CSI, RSSI,
// and clock-quantized ToF — from explicit geometry:
//
//   * a line-of-sight path AP -> client, plus `n_paths` single-bounce paths
//     via explicit scatterer points (walls, furniture, people);
//   * per-path delay = geometric length / c, per-path loss = log-distance
//     path loss over that length plus a reflection loss;
//   * CSI per subcarrier i and antenna pair: H_i = sum_p g_p e^{-j2π f_i τ_p}
//     with uniform-linear-array phase terms at both ends.
//
// The model is split in two. A WirelessChannel is one link's *state*: its
// config, AP position, trajectory, scatterer and shadow-field realization,
// and the RNG its noisy reads draw from. ChannelBatch (channel_batch.hpp) is
// the one *engine*: every read that needs path geometry or CSI synthesis —
// for one link or for a batch of thousands — runs through its kernels, so
// every consumer sees the same bits. ToF and the ground-truth distance need
// no path geometry and stay here.
//
// Because phases derive from geometry, every effect the paper's classifier
// exploits emerges mechanically rather than by construction:
//   * nothing moves            -> CSI constant up to measurement noise;
//   * people move (environmental) -> only the paths through those scatterers
//     decorrelate — "environmental mobility typically affects only a few
//     multipath components" (§2.3);
//   * the device moves (micro/macro) -> every path's phase rotates (λ/2 per
//     2.6 cm at 5.785 GHz) -> fast full decorrelation;
//   * only macro-mobility changes the AP-client distance -> ToF trend (§2.4).
#pragma once

#include <memory>

#include "chan/geometry.hpp"
#include "chan/trajectory.hpp"
#include "phy/csi.hpp"
#include "util/inline_vec.hpp"
#include "util/rng.hpp"

namespace mobiwlan {

class ChannelBatch;

/// How much the environment itself moves (paper §2.1: quiet lab vs cafeteria
/// at lunch hour; Fig. 2b further splits environmental into weak and strong).
enum class EnvironmentalActivity { kNone, kWeak, kStrong };

struct ChannelConfig {
  // -- radio ---------------------------------------------------------------
  double carrier_hz = 5.785e9;      ///< paper: 5.8 GHz band
  double bandwidth_hz = 40e6;       ///< channel width (noise bandwidth)
  double subcarrier_spacing_hz = 312.5e3;
  std::size_t n_tx = 3;             ///< MSM 460: 3 transmit antennas
  std::size_t n_rx = 2;             ///< Galaxy S5: 2 antennas
  std::size_t n_subcarriers = kDefaultSubcarriers;
  double tx_power_dbm = 18.0;
  double noise_figure_db = 7.0;

  // -- propagation ---------------------------------------------------------
  double ref_loss_db = 47.0;        ///< path loss at 1 m (5.8 GHz free space)
  double path_loss_exponent = 3.2;  ///< indoor office (walls, furniture)
  std::size_t n_paths = 10;         ///< structural single-bounce NLOS paths
  double reflection_loss_lo_db = 3.0;   ///< walls/metal furniture reflect well
  double reflection_loss_hi_db = 9.0;
  /// Scatterers ring the AP-client midpoint between these radii. The far
  /// edge sets the excess-delay spread (and therefore how much frequency
  /// ripple the 52-subcarrier CSI shows): 25 m of extra path is ~80 ns,
  /// matching office-scale RMS delay spreads.
  double scatterer_radius_min_m = 4.0;
  double scatterer_radius_max_m = 25.0;
  /// Extra attenuation on the direct path per metre beyond 5 m: cubicles,
  /// shelving and people increasingly obstruct the LOS at range, so the
  /// Rician K-factor falls with distance (far links are scattering-rich).
  double los_obstruction_db_per_m = 0.2;

  // -- environmental activity ----------------------------------------------
  // Moving people contribute *additional*, weaker reflection paths (bodies
  // reflect far less than walls) whose motion modulates only their own
  // contribution — "environmental mobility typically affects only a few
  // multipath components" (§2.3).
  EnvironmentalActivity activity = EnvironmentalActivity::kNone;
  int n_movers_weak = 2;            ///< moving people, weak activity
  int n_movers_strong = 4;          ///< moving people, cafeteria
  double person_reflection_loss_lo_db = 13.0;
  double person_reflection_loss_hi_db = 19.0;
  // Pacing amplitude and cadence give peak speeds under ~1 m/s — people
  // shifting around tables, not sprinting.
  double mover_amplitude_weak_m = 0.7;
  double mover_amplitude_strong_m = 1.2;
  /// Peak attenuation of the direct path when a person crosses it. Bodies
  /// block 5 GHz almost completely; this is what makes RSSI fluctuate under
  /// environmental mobility as much as (or more than) under device mobility
  /// (Fig. 1), even though only a few multipath components change.
  double blockage_depth_weak_db = 3.0;
  double blockage_depth_strong_db = 7.0;

  // -- measurement imperfections -------------------------------------------
  /// CSI estimation integrates the long training fields, so its effective
  /// SNR sits above the per-symbol link SNR by a processing gain, up to a
  /// hardware cap.
  double csi_processing_gain_db = 20.0;
  double csi_snr_cap_db = 42.0;
  double rssi_noise_db = 0.4;       ///< front-end RSSI jitter (std)
  double rssi_quantum_db = 0.5;     ///< RSSI register granularity

  // -- Time-of-Flight (§2.4; Atheros ToD/ToA of the data-ACK exchange) ------
  double tof_clock_hz = 88e6;       ///< effective timestamp clock
  double tof_noise_ns = 12.0;       ///< per-reading jitter (std)
  double tof_bias_ns = 15.0;        ///< mean detection/multipath bias

  // -- body shadowing --------------------------------------------------------
  // At 5.8 GHz the user's body and orientation gate the whole link by several
  // dB, and the blockage pattern is a function of *where* the client is. We
  // model it as a smooth random field over 2-D space (sum of spatial
  // sinusoids): a static client sees a constant offset, a walking client
  // sweeps through the field and sees second-scale swings — which is what
  // makes the optimal bit-rate drift under macro-mobility (Fig. 8).
  double shadow_sigma_db = 4.0;
  double shadow_correlation_m = 3.0;  ///< spatial wavelength of the field
  int shadow_waves = 6;
};

/// One observation at the AP from a data-ACK exchange with the client.
struct ChannelSample {
  double t = 0.0;
  CsiMatrix csi;             ///< measured (noisy) CSI
  double rssi_dbm = 0.0;     ///< quantized RSSI
  double snr_db = 0.0;       ///< true wideband SNR (drives the PHY error model)
  double tof_cycles = 0.0;   ///< quantized round-trip clock-cycle count
  double true_distance_m = 0.0;  ///< ground truth, never shown to algorithms
};

/// The radio link between one AP and one client following a trajectory: its
/// realization (scatterers, shadow field) and the generator its noisy reads
/// draw from. Every CSI / RSSI / SNR read is synthesized by the ChannelBatch
/// kernels; the by-value reads below forward to ChannelBatch's link entry
/// points through a per-thread scratch.
class WirelessChannel {
 public:
  WirelessChannel(const ChannelConfig& config, Vec2 ap_pos,
                  std::shared_ptr<const Trajectory> trajectory, Rng rng);

  /// A channel with no realization yet, for an owner that associates later
  /// (a pooled campus session embeds its channel). Every read is invalid
  /// until the first reinit().
  WirelessChannel(const ChannelConfig& config,
                  std::shared_ptr<const Trajectory> trajectory);

  /// Re-draws the channel realization in place for a new AP association:
  /// bitwise the state a freshly constructed WirelessChannel{config(),
  /// ap_pos, trajectory(), rng} would hold, reusing the scatterer and
  /// shadow-wave storage. Allocation-free within the inline capacities.
  void reinit(Vec2 ap_pos, Rng rng);

  /// Prefetches the object, which holds the realization at the campus
  /// shape. Purely a cache hint — no observable effect; a batched caller
  /// issues it one link ahead so the misses overlap the current link's
  /// synthesis.
  void prefetch() const;

  /// Full observation (CSI + RSSI + SNR + ToF) at time t
  /// (ChannelBatch::sample_link).
  ChannelSample sample(double t);

  /// Measured (noisy) CSI only (ChannelBatch::csi_link).
  CsiMatrix csi_at(double t);

  /// Noiseless CSI — the channel's ground truth, used by the trace-based
  /// emulators to apply a precoder computed from stale *measured* CSI to the
  /// *actual* channel at transmit time (ChannelBatch::csi_true_link).
  CsiMatrix csi_true(double t) const;

  /// True wideband SNR in dB at time t, no draws (ChannelBatch::snr_link).
  double snr_db(double t) const;

  /// Quantized RSSI reading in dBm (ChannelBatch::rssi_link).
  double rssi_dbm(double t);

  /// One noisy, clock-quantized ToF reading (round-trip clock cycles).
  double tof_cycles(double t);

  /// Ground-truth AP-client distance.
  double true_distance(double t) const;

  /// Ground-truth radial velocity (m/s, positive = moving away).
  double radial_velocity(double t) const;

  /// Body-shadowing attenuation (dB, zero-mean over space) at the client's
  /// position at time t.
  double shadow_db_at(double t) const;

  const ChannelConfig& config() const { return config_; }
  Vec2 ap_position() const { return ap_pos_; }
  const Trajectory& trajectory() const { return *trajectory_; }

 private:
  // The channel engine (chan/channel_batch.hpp) reads the realization
  // (scatterers, shadow field) and drives rng_ through the per-link draw
  // sequence.
  friend class ChannelBatch;

  // Draws scatterers_ and shadow_waves_ from rng_ (shared by the
  // constructor and reinit; clear()+refill keeps the capacity).
  void build_realization();

  struct Scatterer {
    Vec2 home;
    double reflection_loss_db;
    double reflection_phase;
    // Sinusoidal pacing for moving people (amplitude 0 = static object).
    Vec2 motion_dir;
    double motion_amplitude_m = 0.0;
    double motion_freq_hz = 0.0;
    double motion_phase = 0.0;
    // Peak LOS attenuation when this person crosses the direct path.
    double blockage_depth_db = 0.0;
  };

  struct ShadowWave {
    Vec2 k;        // spatial wavevector
    double phase;
  };

  ChannelConfig config_;
  Vec2 ap_pos_;
  std::shared_ptr<const Trajectory> trajectory_;
  // Inline capacities cover campus_channel_config() (4 static paths, no
  // movers, 6 shadow waves); the 10-path default spills to the heap.
  InlineVec<Scatterer, 4> scatterers_;
  InlineVec<ShadowWave, 6> shadow_waves_;
  Rng rng_;
};

}  // namespace mobiwlan
