#include "mac/link_sim.hpp"

#include <algorithm>
#include <bit>

#include "mac/frame_sim_config.hpp"
#include "mac/observer.hpp"

namespace mobiwlan {

LinkSimResult simulate_link(Scenario& scenario, RateAdapter& ra,
                            const LinkSimConfig& config, Rng& rng) {
  trace::LiveChannelSource live(*scenario.channel);
  trace::FaultedSource src(live, config.fault);
  return simulate_link(src, ra, config, rng, scenario.truth);
}

LinkSimResult simulate_link(trace::ObservableSource& src, RateAdapter& ra,
                            const LinkSimConfig& config, Rng& rng,
                            std::optional<MobilityClass> sensor_truth) {
  using trace::StreamKind;
  constexpr const char* kLoop = "link sim";
  validate_frame_sim_config(
      kLoop, config.duration_s, config.mpdu_payload_bytes,
      config.run_classifier ? &config.classifier : nullptr);
  require_loss_payload(kLoop, config.mpdu_payload_bytes);
  validate_link_disturbances(kLoop, config.interference_burst_rate_hz,
                             config.interference_burst_min_s,
                             config.interference_burst_max_s,
                             config.tcp_stall_s);
  src.require({StreamKind::kTrueCsi, StreamKind::kSnr}, kLoop);
  if (config.run_classifier)
    src.require({StreamKind::kCsi, StreamKind::kTof}, "link sim classifier");

  MobilityObserver observer(config.classifier, 1);
  const PerGrid& per_grid =
      PerGrid::shared(config.mpdu_payload_bytes, config.error_model);

  LinkSimResult result;
  double t = 0.0;
  long delivered_bytes = 0;

  FrameChannel ch;
  MpduErrors errors;

  // Client PHY feedback (SoftRate / ESNR) carries the previous frame's view.
  std::optional<double> feedback_esnr;
  std::optional<double> feedback_ber;

  // Poisson interference bursts (see LinkSimConfig).
  double burst_start = config.interference_burst_rate_hz > 0.0
                           ? rng.exponential(1.0 / config.interference_burst_rate_hz)
                           : 2.0 * config.duration_s;
  double burst_end = burst_start;

  int last_mcs = -1;
  std::optional<MobilityMode> last_mode;
  int consecutive_full_losses = 0;

  // §9 uplink hint advertisement (see LinkSimConfig::mobility_hint_latency_s).
  std::optional<MobilityMode> advertised_mode;
  double next_hint_t = 0.0;

  while (t < config.duration_s) {
    // --- classifier inputs arrive on their own cadence -----------------
    if (config.run_classifier) observer.advance(src, 0, t);

    // --- build the transmit context ------------------------------------
    TxContext ctx;
    ctx.t = t;
    ctx.mpdu_payload_bytes = config.mpdu_payload_bytes;
    if (config.run_classifier) {
      // decision(t) decays to nullopt when the CSI stream has gone silent;
      // the rate adapter then falls back to its mobility-oblivious path
      // instead of acting on a stale mode.
      const std::optional<MobilityMode> decided =
          observer.classifier().decision(t);
      if (config.mobility_hint_latency_s <= 0.0) {
        ctx.mobility = decided;
      } else if (decided) {
        if (t >= next_hint_t) {
          advertised_mode = *decided;
          next_hint_t = t + config.mobility_hint_latency_s;
        }
        ctx.mobility = advertised_mode;
      }
    }
    if (config.provide_sensor_hint)
      ctx.sensor_in_motion = sensor_truth == MobilityClass::kMicro ||
                             sensor_truth == MobilityClass::kMacro;
    if (config.provide_phy_feedback) {
      ctx.feedback_esnr_db = feedback_esnr;
      ctx.feedback_ber = feedback_ber;
    }

    // --- compose and transmit one A-MPDU --------------------------------
    const int mcs_index = ra.select_mcs(ctx);
    const McsEntry& entry = mcs(mcs_index);
    const double limit = aggregation_limit_s(config.aggregation, ctx.mobility);
    AmpduPlan plan =
        plan_ampdu(entry, limit, config.mpdu_payload_bytes, config.airtime);
    if (ra.probing() && plan.n_mpdus > 4) {
      // Short probe frame: bound the cost of probing a rate that fails.
      plan = plan_ampdu(entry, limit / plan.n_mpdus * 4, config.mpdu_payload_bytes,
                        config.airtime);
    }

    ch.read(src, 0, t, plan.frame_airtime_s, kLoop);

    // Advance the interference process past stale bursts.
    while (burst_end < t && config.interference_burst_rate_hz > 0.0) {
      burst_start = burst_end + rng.exponential(1.0 / config.interference_burst_rate_hz);
      burst_end = burst_start + rng.uniform(config.interference_burst_min_s,
                                            config.interference_burst_max_s);
    }
    const bool jammed =
        t < burst_end && t + plan.frame_airtime_s > burst_start;

    int n_failed = 0;
    double frame_ber_sum = 0.0;
    if (jammed) {
      n_failed = plan.n_mpdus;
      frame_ber_sum = 0.5 * plan.n_mpdus;
    } else {
      // SoftPHY sees the whole frame, so it needs every MPDU priced.
      n_failed = std::popcount(ampdu_mpdu_losses(
          entry, ch.eff_snr_db, ch.decorr_end, plan.n_mpdus, per_grid, rng,
          config.provide_phy_feedback ? &errors : nullptr));
      // Sum the per-MPDU BER the receiver would measure, aged tail
      // included, in MPDU order.
      if (config.provide_phy_feedback)
        for (int i = 0; i < plan.n_mpdus; ++i)
          frame_ber_sum += errors.ber[static_cast<std::size_t>(i)];
    }

    FrameResult frame;
    frame.t = t;
    frame.mcs = mcs_index;
    frame.n_mpdus = plan.n_mpdus;
    frame.n_failed = n_failed;
    frame.block_ack_received = n_failed < plan.n_mpdus;
    ra.on_result(frame, ctx);

    delivered_bytes +=
        static_cast<long>(plan.n_mpdus - n_failed) * config.mpdu_payload_bytes;
    result.mpdus_sent += plan.n_mpdus;
    result.mpdus_lost += n_failed;
    ++result.frames;

    if (mcs_index != last_mcs) {
      result.mcs_series.emplace_back(t, mcs_index);
      last_mcs = mcs_index;
    }
    if (ctx.mobility && ctx.mobility != last_mode) {
      result.mode_series.emplace_back(t, *ctx.mobility);
      last_mode = ctx.mobility;
    }

    // --- client PHY feedback for the next frame -------------------------
    // The feedback rides the acked frame; its export can be lost too, in
    // which case the RA keeps the previous frame's view.
    if (config.provide_phy_feedback && frame.block_ack_received &&
        src.feedback_delivered(0, t)) {
      feedback_esnr = ch.eff_snr_db;
      feedback_ber = frame_ber_sum / plan.n_mpdus;
    }

    t += exchange_airtime_s(entry, plan.n_mpdus, config.mpdu_payload_bytes,
                            config.airtime);
    if (!frame.block_ack_received) {
      ++result.full_loss_events;
      ++consecutive_full_losses;
      if (consecutive_full_losses >= 2) t += config.tcp_stall_s;
    } else {
      consecutive_full_losses = 0;
    }
  }

  result.goodput_mbps = 8.0 * static_cast<double>(delivered_bytes) /
                        config.duration_s / 1e6;
  result.mean_per = result.mpdus_sent > 0
                        ? static_cast<double>(result.mpdus_lost) / result.mpdus_sent
                        : 0.0;
  return result;
}

}  // namespace mobiwlan
