#include "sim/overall_sim.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "core/policy.hpp"
#include "mac/aggregation.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/frame_sim_config.hpp"
#include "mac/observer.hpp"
#include "net/deployment_source.hpp"
#include "phy/beamforming.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan {

OverallSimResult simulate_overall(WlanDeployment& wlan,
                                  const OverallSimConfig& config, Rng& rng) {
  LiveDeploymentSource live(wlan);
  trace::FaultedSource src(live, config.fault);
  return simulate_overall(src, config, rng);
}

OverallSimResult simulate_overall(trace::ObservableSource& src,
                                  const OverallSimConfig& config, Rng& rng) {
  using trace::StreamKind;
  constexpr const char* kLoop = "overall sim";
  validate_frame_sim_config(
      kLoop, config.duration_s, config.mpdu_payload_bytes,
      config.mobility_aware ? &config.classifier : nullptr);
  require_loss_payload(kLoop, config.mpdu_payload_bytes);
  src.require({StreamKind::kTrueCsi, StreamKind::kSnr, StreamKind::kRssi,
               StreamKind::kScanRssi, StreamKind::kCsiFeedback},
              kLoop);
  if (config.mobility_aware)
    src.require({StreamKind::kCsi, StreamKind::kTof},
                "overall sim classifier");

  OverallSimResult result;

  std::size_t assoc = src.strongest_unit(0.0).value_or(0);
  result.associations.emplace_back(0.0, assoc);

  auto make_ra = [&]() -> std::unique_ptr<AtherosRa> {
    if (config.mobility_aware)
      return std::make_unique<AtherosRa>(make_mobility_aware_atheros_ra());
    return std::make_unique<AtherosRa>();
  };
  std::unique_ptr<AtherosRa> ra = make_ra();

  MobilityObserver observer(config.classifier, src.n_units());
  FrameChannel ch;
  const PerGrid& per_grid =
      PerGrid::shared(config.mpdu_payload_bytes, config.error_model);

  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);
  const ProtocolParams stock = default_params();

  double t = 0.0;
  double next_fb_t = 0.0;
  double next_roam_check_t = 0.0;
  double steer_ok_t = 0.0;
  double threshold_scan_ok_t = 0.0;
  CsiMatrix fb_csi;
  bool have_fb = false;
  long delivered_bytes = 0;

  // Hold-then-decay: decision(now) withholds the mode once the CSI stream
  // goes stale, so every mobility-aware knob falls back to stock behaviour
  // under export loss instead of acting on an outdated classification.
  auto current_mode = [&](double now) -> std::optional<MobilityMode> {
    if (!config.mobility_aware) return std::nullopt;
    return observer.classifier().decision(now);
  };

  auto begin_handoff = [&](std::size_t target) {
    assoc = target;
    t += config.handoff_outage_s;
    result.outage_s += config.handoff_outage_s;
    ++result.handoffs;
    result.associations.emplace_back(t, target);
    ra = make_ra();
    observer.reassociate();
    have_fb = false;
    next_fb_t = t;
  };

  while (t < config.duration_s) {
    // --- measurement processes -----------------------------------------
    if (config.mobility_aware) observer.advance(src, assoc, t);

    const std::optional<MobilityMode> mode = current_mode(t);
    const ProtocolParams params = mode ? mobility_params(*mode) : stock;

    // --- CSI feedback sounding (beamforming) ----------------------------
    if (t >= next_fb_t) {
      // An active protocol exchange, never faulted; the airtime is spent
      // whether or not a replayed trace can serve the report.
      if (src.csi_feedback(static_cast<std::uint32_t>(assoc), t, fb_csi))
        have_fb = true;
      t += fb_airtime;  // sounding + report occupy the medium
      next_fb_t = t + (config.mobility_aware ? params.bf_update_period_s
                                             : stock.bf_update_period_s);
    }

    // --- roaming control loop -------------------------------------------
    if (t >= next_roam_check_t) {
      next_roam_check_t = t + config.roam_check_period_s;
      // Serving-link RSSI export; when the export is lost there is nothing
      // to trigger on this check and the client stays put (no spurious roam).
      const std::optional<double> current_rssi =
          src.rssi_dbm(static_cast<std::uint32_t>(assoc), t);
      if (current_rssi && *current_rssi < config.rssi_threshold_dbm &&
          t >= threshold_scan_ok_t) {
        threshold_scan_ok_t = t + config.min_scan_gap_s;
        if (const auto target = src.strongest_unit(t)) {
          begin_handoff(*target);
          continue;
        }
      }
      if (config.mobility_aware && t >= steer_ok_t && mode &&
          *mode == MobilityMode::kMacroAway && current_rssi) {
        if (const auto target =
                observer.steer_target(src, assoc, *current_rssi, t)) {
          begin_handoff(*target);
          steer_ok_t = t + config.steer_cooldown_s;
          continue;
        }
      }
    }

    // --- one A-MPDU exchange ---------------------------------------------
    TxContext ctx;
    ctx.t = t;
    ctx.mpdu_payload_bytes = config.mpdu_payload_bytes;
    ctx.mobility = mode;

    const int mcs_index = ra->select_mcs(ctx);
    const McsEntry& entry = mcs(mcs_index);
    const double agg_limit = config.mobility_aware ? params.aggregation_limit_s
                                                   : stock.aggregation_limit_s;
    const AmpduPlan plan =
        plan_ampdu(entry, agg_limit, config.mpdu_payload_bytes, config.airtime);

    ch.read(src, static_cast<std::uint32_t>(assoc), t, plan.frame_airtime_s,
            kLoop);
    double snr = ch.eff_snr_db;
    if (have_fb)
      snr += std::max(0.0, su_beamforming_gain_db(ch.h_start, fb_csi));

    const int n_failed = std::popcount(
        ampdu_mpdu_losses(entry, snr, ch.decorr_end, plan.n_mpdus, per_grid,
                          rng));

    FrameResult frame;
    frame.t = t;
    frame.mcs = mcs_index;
    frame.n_mpdus = plan.n_mpdus;
    frame.n_failed = n_failed;
    frame.block_ack_received = n_failed < plan.n_mpdus;
    ra->on_result(frame, ctx);

    delivered_bytes +=
        static_cast<long>(plan.n_mpdus - n_failed) * config.mpdu_payload_bytes;
    t += exchange_airtime_s(entry, plan.n_mpdus, config.mpdu_payload_bytes,
                            config.airtime);
  }

  result.throughput_mbps =
      8.0 * static_cast<double>(delivered_bytes) / config.duration_s / 1e6;
  return result;
}

}  // namespace mobiwlan
