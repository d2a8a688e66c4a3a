// deployment.hpp — a multi-AP WLAN serving one mobile client.
//
// The §3/§7 testbed: six APs on an office floor, a controller wired to all
// of them, and a client walking through. Every AP maintains its own radio
// channel to the client (independent scatterer field, shared trajectory), so
// any AP can measure the client's RSSI, CSI and ToF — which is what lets the
// controller ask *neighbor* APs for distance/heading during roaming.
#pragma once

#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/trajectory.hpp"
#include "util/rng.hpp"

namespace mobiwlan {

class WlanDeployment {
 public:
  WlanDeployment(std::vector<Vec2> ap_positions,
                 std::shared_ptr<const Trajectory> client,
                 const ChannelConfig& config, Rng& rng);

  std::size_t n_aps() const { return channels_.size(); }
  Vec2 ap_position(std::size_t ap) const { return positions_[ap]; }
  WirelessChannel& channel(std::size_t ap) { return *channels_[ap]; }
  const Trajectory& client() const { return *client_; }

  /// The standard 6-AP corridor used by the §3 and §7 experiments:
  /// APs every `spacing` metres along a hallway.
  static std::vector<Vec2> corridor_layout(std::size_t n_aps = 6,
                                           double spacing_m = 35.0);

  /// A cols x rows AP grid at `pitch_m` spacing, row-major from the origin —
  /// the building-scale layout the campus simulation partitions into shards.
  static std::vector<Vec2> grid_layout(std::size_t cols, std::size_t rows,
                                       double pitch_m);

  /// A natural walk confined to the corridor covered by corridor_layout():
  /// the workload of the paper's roaming (§3.2) and end-to-end (§7) tests.
  static std::shared_ptr<WalkTrajectory> corridor_walk(Rng& rng,
                                                       std::size_t n_aps = 6,
                                                       double spacing_m = 35.0);

 private:
  std::vector<Vec2> positions_;
  std::shared_ptr<const Trajectory> client_;
  std::vector<std::unique_ptr<WirelessChannel>> channels_;
};

}  // namespace mobiwlan
