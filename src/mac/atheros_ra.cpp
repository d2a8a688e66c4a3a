#include "mac/atheros_ra.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/policy.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan {

AtherosRa::AtherosRa(Config config)
    : AtherosRa(config, [](const TxContext&) { return AtherosRaParams{}; },
                "atheros-ra") {}

AtherosRa::AtherosRa(Config config, ParamProvider params,
                     std::string_view name)
    : config_(config),
      params_(std::move(params)),
      name_(name),
      ladder_(atheros_rate_ladder(config.max_streams)),
      per_(ladder_.size(), 0.0),
      current_(ladder_.size() - 1) {}  // §4.1: starts with the highest bit-rate

void AtherosRa::reset() {
  std::fill(per_.begin(), per_.end(), 0.0);
  current_ = ladder_.size() - 1;  // §4.1: starts with the highest bit-rate
  last_rate_change_t_ = 0.0;
  last_probe_t_ = 0.0;
  consecutive_full_losses_ = 0;
  epoch_start_t_ = 0.0;
  epoch_mpdus_ = 0;
  epoch_failed_ = 0;
  probing_ = false;
  probe_return_ = 0;
}

std::size_t AtherosRa::ladder_pos(int mcs_index) const {
  const auto it = std::find(ladder_.begin(), ladder_.end(), mcs_index);
  if (it == ladder_.end()) throw std::invalid_argument("MCS not on the rate ladder");
  return static_cast<std::size_t>(it - ladder_.begin());
}

int AtherosRa::select_mcs(const TxContext& ctx) {
  const AtherosRaParams params = params_(ctx);
  if (!probing_ && current_ + 1 < ladder_.size() &&
      ctx.t - last_probe_t_ >= params.probe_interval_s &&
      ctx.t - last_rate_change_t_ >= params.probe_interval_s &&
      per_[current_] < config_.per_probe_ok) {
    probing_ = true;
    probe_return_ = current_;
    ++current_;
    last_probe_t_ = ctx.t;
  }
  return ladder_[current_];
}

void AtherosRa::on_result(const FrameResult& result, const TxContext& ctx) {
  const AtherosRaParams params = params_(ctx);
  const std::size_t pos = ladder_pos(result.mcs);

  const double inst_per =
      result.n_mpdus > 0
          ? static_cast<double>(result.n_failed) / result.n_mpdus
          : 1.0;

  // --- probe resolution is immediate (a probe is a single question) -------
  if (probing_ && pos == current_) {
    probing_ = false;
    per_[pos] = params.alpha * inst_per + (1.0 - params.alpha) * per_[pos];
    enforce_monotonicity(pos);
    if (!result.block_ack_received || inst_per > config_.per_step_down) {
      current_ = probe_return_;  // failed probe: return whence we came
    } else {
      consecutive_full_losses_ = 0;  // successful probe: stay up
    }
    last_rate_change_t_ = result.t;
    return;
  }

  // --- total loss handling is immediate (§4.1: no Block ACK -> lower rate) -
  if (!result.block_ack_received) {
    // §4.2 optimization 1: retry at the current rate `rate_retries` times
    // before concluding the channel deteriorated (stock: 0 retries).
    ++consecutive_full_losses_;
    if (consecutive_full_losses_ > params.rate_retries) {
      step_down();
      consecutive_full_losses_ = 0;
      last_rate_change_t_ = result.t;
      last_probe_t_ = result.t;
      // The rate that just failed completely is in a bad state.
      per_[pos] = std::max(per_[pos], 0.35);
      enforce_monotonicity(pos);
    }
    return;
  }
  consecutive_full_losses_ = 0;

  // --- everything else runs on the driver's statistics epoch ---------------
  // ath9k-style rate control recomputes its filtered PER on a fixed interval
  // (~100 ms), not per frame: the smoothing factor acts on epoch statistics.
  epoch_mpdus_ += result.n_mpdus;
  epoch_failed_ += result.n_failed;
  if (result.t - epoch_start_t_ < config_.decision_interval_s) return;

  const double epoch_per = epoch_mpdus_ > 0
                               ? static_cast<double>(epoch_failed_) / epoch_mpdus_
                               : 0.0;
  epoch_start_t_ = result.t;
  epoch_mpdus_ = 0;
  epoch_failed_ = 0;

  per_[current_] =
      params.alpha * epoch_per + (1.0 - params.alpha) * per_[current_];
  enforce_monotonicity(current_);

  if (per_[current_] > config_.per_step_down) {
    step_down();
    last_rate_change_t_ = result.t;
    last_probe_t_ = result.t;
  }
  (void)ctx;
}

void AtherosRa::step_down() {
  if (current_ > 0) --current_;
}

void AtherosRa::enforce_monotonicity(std::size_t updated_pos) {
  // PER is assumed monotone non-decreasing in rate along the ladder (§4.1).
  for (std::size_t i = updated_pos + 1; i < per_.size(); ++i)
    per_[i] = std::max(per_[i], per_[updated_pos]);
  for (std::size_t i = updated_pos; i-- > 0;)
    per_[i] = std::min(per_[i], per_[updated_pos]);
}

double AtherosRa::per_estimate(int mcs_index) const { return per_[ladder_pos(mcs_index)]; }

int AtherosRa::current_mcs() const { return ladder_[current_]; }

AtherosRa make_mobility_aware_atheros_ra(AtherosRa::Config config) {
  auto provider = [](const TxContext& ctx) {
    AtherosRaParams p;  // stock defaults when the classifier has no answer yet
    if (ctx.mobility) {
      const ProtocolParams table = mobility_params(*ctx.mobility);
      p.alpha = table.per_smoothing_alpha;
      p.rate_retries = table.rate_retries;
      p.probe_interval_s = table.probe_interval_s;
    }
    return p;
  };
  return AtherosRa(config, provider, "motion-aware-atheros-ra");
}

}  // namespace mobiwlan
