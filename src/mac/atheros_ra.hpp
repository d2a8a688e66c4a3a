// atheros_ra.hpp — the stock Atheros MIMO rate adaptation and its
// mobility-aware variant (§4.1-4.2).
//
// Frame-based, transmitter-side, no client feedback:
//   * maintains a low-pass-filtered PER per rate (EWMA, default alpha = 1/8);
//   * enforces PER monotonicity across the rate ladder (higher rate -> higher
//     PER) and skips the ladder entries that would violate it;
//   * drops to the next lower rate when a frame gets no Block ACK;
//   * steps down when the filtered PER at the current rate is too high;
//   * probes the next higher rate after `probe_interval` of success.
//
// The mobility-aware variant is the *same engine* with per-frame parameters
// (alpha, retries before stepping down, probe interval) drawn from Table 2
// according to the classifier's output — the paper's three optimizations:
//  (1) retry at the current rate on full loss unless moving away,
//  (2) PER history length commensurate with mobility,
//  (3) probe aggressively toward the AP, conservatively away.
#pragma once

#include <functional>
#include <span>
#include <string_view>

#include "mac/rate_adaptation.hpp"
#include "util/inline_vec.hpp"

namespace mobiwlan {

/// The tunables §4.2 adapts per mobility mode.
struct AtherosRaParams {
  double alpha = 1.0 / 8.0;       ///< PER EWMA smoothing factor
  int rate_retries = 0;           ///< full-loss retries before stepping down
  double probe_interval_s = 0.05; ///< success time before probing upward
};

class AtherosRa final : public RateAdapter {
 public:
  /// Per-frame parameter source; called with the TxContext so the
  /// mobility-aware variant can key off the classifier output.
  using ParamProvider = std::function<AtherosRaParams(const TxContext&)>;

  struct Config {
    int max_streams = 2;
    double per_step_down = 0.40;  ///< filtered PER above this steps down
    double per_probe_ok = 0.10;   ///< probing allowed only below this PER
    /// Statistics epoch: the driver recomputes its filtered PER and makes
    /// step-down decisions on this cadence (ath9k uses ~100 ms), so the
    /// smoothing factor alpha acts on epoch statistics, not per frame.
    double decision_interval_s = 0.10;
  };

  /// Stock behaviour: fixed default parameters.
  AtherosRa() : AtherosRa(Config{}) {}
  explicit AtherosRa(Config config);

  /// Custom parameter policy (used by make_mobility_aware_atheros_ra).
  /// `name` is not copied: pass a string literal.
  AtherosRa(Config config, ParamProvider params, std::string_view name);

  int select_mcs(const TxContext& ctx) override;
  void on_result(const FrameResult& result, const TxContext& ctx) override;

  /// Restores the just-constructed adaptation state (filtered PERs, ladder
  /// position, probe/epoch bookkeeping) without touching config_/params_/
  /// ladder_ — the session-pool recycle path. A reset adapter behaves
  /// bitwise like a freshly constructed one and performs no allocation.
  void reset();

  bool probing() const override { return probing_; }
  std::string_view name() const override { return name_; }

  /// Filtered PER estimate for a ladder rate (exposed for tests).
  double per_estimate(int mcs_index) const;
  int current_mcs() const;

 private:
  std::size_t ladder_pos(int mcs_index) const;
  void step_down();
  void enforce_monotonicity(std::size_t updated_pos);

  Config config_;
  ParamProvider params_;
  std::string_view name_;
  std::span<const int> ladder_;   ///< the shared atheros_rate_ladder table
  InlineVec<double, 10> per_;     ///< filtered PER per ladder position
  std::size_t current_ = 0;       ///< ladder position in use
  double last_rate_change_t_ = 0.0;
  double last_probe_t_ = 0.0;
  int consecutive_full_losses_ = 0;
  double epoch_start_t_ = 0.0;
  int epoch_mpdus_ = 0;
  int epoch_failed_ = 0;
  bool probing_ = false;
  std::size_t probe_return_ = 0;  ///< position to fall back to if probe fails
};

/// §4.2: the mobility-aware Atheros RA — Table-2 parameters keyed by the
/// classifier output carried in TxContext::mobility (falls back to stock
/// defaults when no classification is available).
AtherosRa make_mobility_aware_atheros_ra(AtherosRa::Config config = AtherosRa::Config{});

}  // namespace mobiwlan
