// session.hpp — the campus floor plan, the client walk, and one session.
//
// A Session is one client's stay on the campus: it arrives, associates to
// the nearest AP, walks a waypoint path, re-associates (and possibly crosses
// a shard boundary) as the nearest AP changes, and departs. Everything a
// session computes — channel realization, classifier state, rate-adaptation
// decisions, statistics, digest — is a pure function of (master seed,
// session id, time), NEVER of the shard hosting it or of the worker thread
// stepping it. That property, plus the epoch-barriered handover in
// CampusSim, is the whole determinism-by-construction argument (DESIGN.md
// §8): moving a session between shards moves this object wholesale, so no
// observable can tell partitions apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/geometry.hpp"
#include "chan/trajectory.hpp"
#include "campus/stats_stream.hpp"
#include "core/mobility_classifier.hpp"
#include "mac/atheros_ra.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace mobiwlan::campus {

// Substream salts for the per-session RNG tree. Every stream is derived
// with Rng::stream (counter-based: a pure function of seed and id), so no
// draw on one stream can shift another — the property that keeps session
// randomness independent of arrival order, shard count, and worker count.
inline constexpr std::uint64_t kArrivalSalt = 0x11;   ///< arrival/dwell draws
inline constexpr std::uint64_t kSessionSalt = 0x22;   ///< per-session base
inline constexpr std::uint64_t kHomeSalt = 0x33;      ///< home position
inline constexpr std::uint64_t kWalkSalt = 0x44;      ///< waypoint legs
inline constexpr std::uint64_t kChannelSalt = 0x55;   ///< per-AP channels
inline constexpr std::uint64_t kMacSalt = 0x66;       ///< per-MPDU loss draws

/// The AP grid: `cols` x `rows` APs at `pitch_m` spacing, AP index
/// row-major from `origin`. Shards own contiguous index bands, so a shard
/// is a horizontal slab of the floor plan and boundary crossings are walks
/// between slabs.
class CampusMap {
 public:
  CampusMap(std::size_t cols, std::size_t rows, double pitch_m,
            Vec2 origin = {0.0, 0.0})
      : cols_(cols), rows_(rows), pitch_m_(pitch_m), origin_(origin) {}

  std::size_t n_aps() const { return cols_ * rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  double pitch_m() const { return pitch_m_; }

  Vec2 ap_position(std::size_t ap) const {
    return {origin_.x + static_cast<double>(ap % cols_) * pitch_m_,
            origin_.y + static_cast<double>(ap / cols_) * pitch_m_};
  }

  /// Corners of the floor-plan rectangle (trajectories are clamped to it).
  Vec2 bounds_min() const { return origin_; }
  Vec2 bounds_max() const {
    return {origin_.x + static_cast<double>(cols_ - 1) * pitch_m_,
            origin_.y + static_cast<double>(rows_ - 1) * pitch_m_};
  }

  /// Index of the AP whose cell contains `p` — nearest AP on the grid.
  /// Pure function of position; O(1).
  std::size_t nearest_ap(Vec2 p) const;

  /// Shard owning AP `ap` under an S-way partition: contiguous row-major
  /// index bands, balanced to within one AP. Pure function of (ap, shards).
  std::size_t shard_of_ap(std::size_t ap, std::size_t shards) const {
    return ap * shards / n_aps();
  }

 private:
  std::size_t cols_;
  std::size_t rows_;
  double pitch_m_;
  Vec2 origin_;
};

/// Campus client walk: piecewise-linear motion through waypoints drawn as a
/// clamped random walk from a home point. All waypoints are materialized at
/// construction (the session's dwell is known when it arrives), so
/// position(t) is O(1), allocation-free, and a pure function of (seed, t) —
/// no draw-count coupling with any other component.
class CampusWalk final : public Trajectory {
 public:
  /// `t0` is the session's arrival time; position(t <= t0) is the home
  /// point. `n_legs` waypoint legs of `leg_s` seconds each cover the
  /// session's dwell; each leg's displacement is uniform in ±`wander_m`
  /// per axis (its own counter-derived substream of `seed`), clamped to
  /// [bounds_min, bounds_max].
  CampusWalk(Vec2 home, Vec2 bounds_min, Vec2 bounds_max, double t0,
             double leg_s, double wander_m, std::size_t n_legs,
             std::uint64_t seed);

  /// An empty walk waiting for rebuild() — the pooled-session recycle path.
  /// position() must not be called before the first rebuild().
  CampusWalk() = default;

  /// Re-draws the walk in place: bitwise the state the equivalent
  /// constructor call would produce, reusing the waypoint storage.
  void rebuild(Vec2 home, Vec2 bounds_min, Vec2 bounds_max, double t0,
               double leg_s, double wander_m, std::size_t n_legs,
               std::uint64_t seed);

  /// Memoized on (t): the campus step evaluates the walk twice per epoch at
  /// the same instant (channel geometry, then the roam decision), so the
  /// second call returns the cached point. Pure function of (seed, t)
  /// either way — the memo is invisible. Single-caller like the rest of the
  /// session: the hosting worker is the only thread touching this walk.
  Vec2 position(double t) const override;
  MobilityClass mobility_class() const override {
    return MobilityClass::kMacro;
  }

  Vec2 home() const { return waypoints_.front(); }

  /// Cache-hint: streams the waypoint table in ahead of position().
  void prefetch() const {
    prefetch_lines(waypoints_.data(), waypoints_.size() * sizeof(Vec2));
  }

 private:
  double t0_ = 0.0;
  double leg_s_ = 1.0;
  std::vector<Vec2> waypoints_;  // n_legs + 1 points, fixed per rebuild
  // position(t) memo; rebuild() invalidates. NaN never equals t, so the
  // sentinel can't alias a real query.
  mutable double memo_t_ = std::numeric_limits<double>::quiet_NaN();
  mutable Vec2 memo_pos_{};
};

/// Per-campus knobs a session needs at construction and while stepping.
struct SessionParams {
  ChannelConfig channel;
  MobilityClassifier::Config classifier;
  double tick_s = 0.5;
  double handover_hysteresis_m = 2.0;  ///< candidate must be this much nearer
  double walk_leg_s = 15.0;
  double walk_wander_m = 25.0;
  int mpdu_payload_bytes = 1500;
  int mpdus_per_exchange = 16;   ///< A-MPDU size of the per-tick exchange
  int mpdus_while_probing = 4;   ///< short A-MPDU bounding a failed probe
};

/// One client session. Not copyable (owns its channel); CampusSim moves the
/// whole object across shards on handover, classifier hold-then-decay state
/// and all.
class Session {
 public:
  /// Creates the session at its arrival instant: derives the RNG tree from
  /// (master_seed, id), builds the walk covering `dwell_epochs`, and
  /// associates to the nearest AP. Call prime() next.
  Session(std::uint64_t id, std::uint64_t master_seed, const CampusMap& map,
          const SessionParams& params, std::uint64_t arrival_epoch,
          std::uint64_t dwell_epochs);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Recycles this object for a new arrival: bitwise the state a freshly
  /// constructed Session{id, master_seed, map, params, arrival_epoch,
  /// dwell_epochs} would hold, but reusing every internal buffer — walk
  /// waypoints, channel scatterers, classifier anchors, RA ladder — so a
  /// pooled steady state performs no allocation. The channel object's
  /// address is stable across reinit *and* across maybe_roam(), which is
  /// what lets CampusSim keep batch slots alive for the whole pool slot.
  void reinit(std::uint64_t id, std::uint64_t arrival_epoch,
              std::uint64_t dwell_epochs);

  /// The two-sample association burst at arrival: samples at
  /// t_arrive - tick and t_arrive establish the classifier's similarity
  /// anchor (and take its one-time allocations) before the session enters
  /// any shard's batched hot loop. Uses the caller's scratch and
  /// ChannelBatch::sample_link — the same kernels as the shard's batch.
  void prime(ChannelBatch::Scratch& scratch, ChannelSample& sample);

  /// One batched-epoch step from an already-taken channel sample: feeds the
  /// classifier, runs the rate-adaptation exchange, updates stats and the
  /// observable digest. Allocation-free. `epoch` is the campus epoch the
  /// sample belongs to. Equivalent to observe_step() then mac_step().
  void step(std::uint64_t epoch, const ChannelSample& sample);

  /// Classifier half of step(): the anchored Eq.-1 similarity update over
  /// the sampled CSI plane (the batched classifier pass — the anchor's
  /// magnitude plane is precomputed once and shared across the window, so
  /// the per-epoch cost is one SoA magnitude kernel per session). Split
  /// from mac_step so the fused shard pass can keep per-session operation
  /// order — observe before MAC — explicit; the split is digest-neutral.
  void observe_step(std::uint64_t epoch, const ChannelSample& sample);

  /// MAC half of step(): rate adaptation plus the per-tick A-MPDU exchange
  /// at the sample's true SNR.
  void mac_step(std::uint64_t epoch, const ChannelSample& sample);

  /// Cache-hint for the whole per-step working set on the session side
  /// (the object, walk waypoints, classifier planes, RA tables — the
  /// channel is hinted separately via ChannelBatch::prefetch_slot). The
  /// fused campus pass issues it one slot ahead; no observable effect.
  void prefetch() const {
    prefetch_lines(this, sizeof(Session), /*for_write=*/true);
    walk_.prefetch();
    classifier_.prefetch();
    ra_.prefetch();
  }

  /// End-of-epoch roam decision: re-associate to the nearest AP if it beats
  /// the serving AP by the hysteresis margin. Returns true on handover
  /// (stats updated, fresh channel built). Pure function of position and
  /// previous serving AP.
  bool maybe_roam(double t);

  std::uint64_t id() const { return stats_.id; }
  std::uint64_t depart_epoch() const { return stats_.depart_epoch; }
  std::size_t serving_ap() const { return serving_ap_; }
  WirelessChannel* channel() { return channel_.get(); }
  const SessionStats& stats() const { return stats_; }
  const MobilityClassifier& classifier() const { return classifier_; }

 private:
  void associate(std::size_t ap);
  void observe(double t, std::uint64_t epoch, const ChannelSample& sample);

  const CampusMap& map_;
  const SessionParams& params_;
  std::uint64_t master_seed_;
  Rng base_;                 ///< Rng(master).stream(kSessionSalt).stream(id)
  Rng mac_rng_;              ///< per-MPDU loss draws (fixed draws per step)
  // The walk lives inside the Session (rebuilt in place on reinit); the
  // channel sees it through a non-owning aliasing shared_ptr built once at
  // construction. Sessions live in pool slabs, so &walk_ is stable for the
  // object's whole lifetime and the alias never dangles.
  CampusWalk walk_;
  std::shared_ptr<const CampusWalk> walk_ref_;
  std::size_t serving_ap_ = 0;
  std::unique_ptr<WirelessChannel> channel_;
  MobilityClassifier classifier_;
  AtherosRa ra_;             ///< mobility-aware variant (Table-2 parameters)
  SessionStats stats_;
};

}  // namespace mobiwlan::campus
