#include "chan/channel.hpp"

#include <cmath>
#include <numbers>

#include "chan/channel_batch.hpp"
#include "util/prefetch.hpp"
#include "util/units.hpp"

namespace mobiwlan {

namespace {
constexpr double kPi = std::numbers::pi;

// Workspace for the by-value reads. Per thread, so concurrent links on
// different workers never share it; it grows once to the largest link seen
// and is reused, so the scalar reads stay allocation-free.
ChannelBatch::Scratch& read_scratch() {
  thread_local ChannelBatch::Scratch scratch;
  return scratch;
}
}  // namespace

WirelessChannel::WirelessChannel(const ChannelConfig& config, Vec2 ap_pos,
                                 std::shared_ptr<const Trajectory> trajectory,
                                 Rng rng)
    : config_(config), ap_pos_(ap_pos), trajectory_(std::move(trajectory)),
      rng_(rng) {
  build_realization();
}

void WirelessChannel::reinit(Vec2 ap_pos, Rng rng) {
  ap_pos_ = ap_pos;
  rng_ = rng;
  scatterers_.clear();
  shadow_waves_.clear();
  build_realization();
}

void WirelessChannel::prefetch() const {
  // rng_ and the sampler's reads all live in the object + the two
  // realization vectors. The data() loads depend on this-object lines that
  // may themselves miss; out-of-order issue still starts them far ahead of
  // the next sample's demand loads.
  prefetch_lines(this, sizeof(WirelessChannel), /*for_write=*/true);
  prefetch_lines(scatterers_.data(), scatterers_.size() * sizeof(Scatterer));
  prefetch_lines(shadow_waves_.data(),
                 shadow_waves_.size() * sizeof(ShadowWave));
}

void WirelessChannel::build_realization() {
  // Place scatterers around the midpoint of the initial AP-client segment —
  // walls, furniture and bystanders that contribute single-bounce paths.
  const Vec2 client0 = trajectory_->position(0.0);
  const Vec2 mid = (ap_pos_ + client0) * 0.5;

  int n_movers = 0;
  double mover_amp = 0.0;
  double blockage_depth = 0.0;
  switch (config_.activity) {
    case EnvironmentalActivity::kNone: break;
    case EnvironmentalActivity::kWeak:
      n_movers = config_.n_movers_weak;
      mover_amp = config_.mover_amplitude_weak_m;
      blockage_depth = config_.blockage_depth_weak_db;
      break;
    case EnvironmentalActivity::kStrong:
      n_movers = config_.n_movers_strong;
      mover_amp = config_.mover_amplitude_strong_m;
      blockage_depth = config_.blockage_depth_strong_db;
      break;
  }

  // Structural reflectors: walls, cabinets — strong, and they never move.
  // Radii are stratified (alternating near/far rings) so every realization
  // has both short and long excess-delay paths; without the far ring, an
  // unlucky draw yields a frequency-flat channel no real office exhibits.
  const double mid_radius =
      (config_.scatterer_radius_min_m + config_.scatterer_radius_max_m) / 2.0;
  for (std::size_t p = 0; p < config_.n_paths; ++p) {
    Scatterer s;
    const double angle = rng_.phase();
    const double r = (p % 2 == 0)
                         ? rng_.uniform(config_.scatterer_radius_min_m, mid_radius)
                         : rng_.uniform(mid_radius, config_.scatterer_radius_max_m);
    s.home = mid + unit_from_angle(angle) * r;
    s.reflection_loss_db =
        rng_.uniform(config_.reflection_loss_lo_db, config_.reflection_loss_hi_db);
    s.reflection_phase = rng_.phase();
    scatterers_.push_back(s);
  }
  // People: weaker additional paths whose reflection points pace around.
  for (int p = 0; p < n_movers; ++p) {
    Scatterer s;
    const double angle = rng_.phase();
    const double r = rng_.uniform(config_.scatterer_radius_min_m, config_.scatterer_radius_max_m);
    s.home = mid + unit_from_angle(angle) * r;
    s.reflection_loss_db = rng_.uniform(config_.person_reflection_loss_lo_db,
                                        config_.person_reflection_loss_hi_db);
    s.reflection_phase = rng_.phase();
    s.motion_dir = unit_from_angle(rng_.phase());
    s.motion_amplitude_m = mover_amp * rng_.uniform(0.5, 1.0);
    s.motion_freq_hz = rng_.uniform(0.06, 0.15);
    s.motion_phase = rng_.phase();
    s.blockage_depth_db = blockage_depth * rng_.uniform(0.4, 1.0);
    scatterers_.push_back(s);
  }

  // Spatial shadowing field (see ChannelConfig).
  for (int w = 0; w < config_.shadow_waves; ++w) {
    const double k_mag = 2.0 * kPi / config_.shadow_correlation_m;
    shadow_waves_.push_back(
        {unit_from_angle(rng_.phase()) * k_mag, rng_.phase()});
  }
}

double WirelessChannel::shadow_db_at(double t) const {
  if (shadow_waves_.empty() || config_.shadow_sigma_db == 0.0) return 0.0;
  const Vec2 pos = trajectory_->position(t);
  double sum = 0.0;
  for (const auto& w : shadow_waves_)
    sum += std::sin(w.k.dot(pos) + w.phase);
  // Each sinusoid has variance 1/2; normalize the sum to unit variance.
  return config_.shadow_sigma_db * sum /
         std::sqrt(static_cast<double>(shadow_waves_.size()) / 2.0);
}

CsiMatrix WirelessChannel::csi_true(double t) const {
  CsiMatrix csi;
  ChannelBatch::csi_true_link(*this, t, csi, read_scratch());
  return csi;
}

CsiMatrix WirelessChannel::csi_at(double t) {
  CsiMatrix csi;
  ChannelBatch::csi_link(*this, t, csi, read_scratch());
  return csi;
}

double WirelessChannel::snr_db(double t) const {
  return ChannelBatch::snr_link(*this, t, read_scratch());
}

double WirelessChannel::rssi_dbm(double t) {
  return ChannelBatch::rssi_link(*this, t, read_scratch());
}

ChannelSample WirelessChannel::sample(double t) {
  ChannelSample s;
  ChannelBatch::sample_link(*this, t, s, read_scratch());
  return s;
}

double WirelessChannel::tof_cycles(double t) {
  const double d = true_distance(t);
  const double rt_ns = 2.0 * d / kSpeedOfLight * 1e9;
  const double measured_ns =
      rt_ns + config_.tof_bias_ns + rng_.gaussian(0.0, config_.tof_noise_ns);
  return std::round(measured_ns * 1e-9 * config_.tof_clock_hz);
}

double WirelessChannel::true_distance(double t) const {
  return distance(ap_pos_, trajectory_->position(t));
}

double WirelessChannel::radial_velocity(double t) const {
  const double dt = 1e-2;
  // A central difference at t < dt would need a sample before t = 0;
  // shifting the window (the old behaviour) reports the velocity at dt, not
  // t, biasing the first 10 ms. Use a forward difference there instead.
  if (t < dt) return (true_distance(t + dt) - true_distance(t)) / dt;
  return (true_distance(t + dt) - true_distance(t - dt)) / (2.0 * dt);
}

}  // namespace mobiwlan
