#include "net/deployment.hpp"

namespace mobiwlan {

WlanDeployment::WlanDeployment(std::vector<Vec2> ap_positions,
                               std::shared_ptr<const Trajectory> client,
                               const ChannelConfig& config, Rng& rng)
    : positions_(std::move(ap_positions)), client_(std::move(client)) {
  channels_.reserve(positions_.size());
  for (const Vec2 pos : positions_)
    channels_.push_back(
        std::make_unique<WirelessChannel>(config, pos, client_, rng.split()));
}

std::vector<Vec2> WlanDeployment::corridor_layout(std::size_t n_aps,
                                                  double spacing_m) {
  std::vector<Vec2> out;
  out.reserve(n_aps);
  for (std::size_t i = 0; i < n_aps; ++i)
    out.push_back({static_cast<double>(i) * spacing_m, 0.0});
  return out;
}

std::vector<Vec2> WlanDeployment::grid_layout(std::size_t cols,
                                              std::size_t rows,
                                              double pitch_m) {
  std::vector<Vec2> out;
  out.reserve(cols * rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out.push_back({static_cast<double>(c) * pitch_m,
                     static_cast<double>(r) * pitch_m});
  return out;
}

std::shared_ptr<WalkTrajectory> WlanDeployment::corridor_walk(Rng& rng,
                                                              std::size_t n_aps,
                                                              double spacing_m) {
  const double length = static_cast<double>(n_aps - 1) * spacing_m;
  WalkTrajectory::Config wc;
  wc.bounds_min = {-5.0, -8.0};
  wc.bounds_max = {length + 5.0, 8.0};
  const Vec2 start{rng.uniform(0.0, length), rng.uniform(-6.0, 6.0)};
  return std::make_shared<WalkTrajectory>(start, rng, wc, 600.0);
}

}  // namespace mobiwlan
