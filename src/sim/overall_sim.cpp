#include "sim/overall_sim.hpp"

#include <algorithm>
#include <memory>

#include "core/policy.hpp"
#include "core/tof_tracker.hpp"
#include "mac/aggregation.hpp"
#include "mac/atheros_ra.hpp"
#include "net/deployment_source.hpp"
#include "phy/beamforming.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan {

namespace {

double ground(std::optional<double> v, const char* what) {
  if (!v)
    throw trace::TraceError(trace::TraceError::Code::kMissingStream,
                            std::string("overall sim: ground-truth observable "
                                        "unavailable from source: ") +
                                what);
  return *v;
}

void ground_csi(bool ok, const char* what) {
  if (!ok)
    throw trace::TraceError(trace::TraceError::Code::kMissingStream,
                            std::string("overall sim: ground-truth CSI "
                                        "unavailable from source: ") +
                                what);
}

}  // namespace

OverallSimResult simulate_overall(WlanDeployment& wlan,
                                  const OverallSimConfig& config, Rng& rng) {
  LiveDeploymentSource src(wlan);
  return simulate_overall(src, config, rng);
}

OverallSimResult simulate_overall(trace::ObservableSource& src,
                                  const OverallSimConfig& config, Rng& rng) {
  using trace::StreamKind;
  src.require({StreamKind::kTrueCsi, StreamKind::kSnr, StreamKind::kRssi,
               StreamKind::kScanRssi, StreamKind::kCsiFeedback},
              "overall sim");
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

  MobilityClassifier classifier(config.classifier);
  std::vector<TofTracker> heading(src.n_units(),
                                  TofTracker(config.classifier.tof));

  // Per-AP fault streams over the controller-facing exports, gated INSIDE
  // the loop rather than by a FaultedSource: ToF is measured by a batched
  // sweep across all APs, so the sweep always runs (every AP's reading is
  // drawn, keeping the shared draw order) and per-AP drops are applied to
  // the *export* after the fact. Dropped CSI/RSSI readings skip the source
  // call entirely (export lost, channel RNG untouched), so an all-zero plan
  // is bitwise-identical.
  std::vector<FaultStream> csi_fault;
  std::vector<FaultStream> tof_fault;
  std::vector<FaultStream> rssi_fault;
  for (std::size_t ap = 0; ap < src.n_units(); ++ap) {
    csi_fault.push_back(make_stream(config.fault, FaultStreamKind::kCsi, ap));
    tof_fault.push_back(make_stream(config.fault, FaultStreamKind::kTof, ap));
    rssi_fault.push_back(make_stream(config.fault, FaultStreamKind::kRssi, ap));
  }
  const bool rssi_only = config.fault.rssi_only;

  CsiMatrix meas_csi, h_start, h_end;
  std::vector<std::optional<double>> sweep(src.n_units());

  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);
  const ProtocolParams stock = default_params();

  double t = 0.0;
  double next_csi_t = 0.0;
  double next_tof_t = 0.0;
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
    return classifier.decision(now);
  };

  auto begin_handoff = [&](std::size_t target) {
    assoc = target;
    t += config.handoff_outage_s;
    result.outage_s += config.handoff_outage_s;
    ++result.handoffs;
    result.associations.emplace_back(t, target);
    ra = make_ra();
    classifier = MobilityClassifier(config.classifier);
    have_fb = false;
    next_fb_t = t;
  };

  while (t < config.duration_s) {
    // --- measurement processes -----------------------------------------
    if (config.mobility_aware) {
      while (next_csi_t <= t) {
        if (!rssi_only && csi_fault[assoc].deliver(next_csi_t)) {
          if (src.csi(static_cast<std::uint32_t>(assoc),
                      csi_fault[assoc].measured_t(next_csi_t), meas_csi))
            classifier.on_csi(next_csi_t, meas_csi);
        }
        next_csi_t += config.classifier.csi_period_s;
      }
      while (next_tof_t <= t) {
        // plan.tof.delay_s is shared by every AP, so the whole (batched)
        // sweep samples at the delayed instant; drops then lose individual
        // AP exports without perturbing the shared draw order.
        const double shifted = next_tof_t - config.fault.tof.delay_s;
        src.tof_sweep(shifted > 0.0 ? shifted : 0.0, sweep.data());
        for (std::size_t ap = 0; ap < src.n_units(); ++ap) {
          if (rssi_only || !tof_fault[ap].deliver(next_tof_t)) continue;
          if (!sweep[ap]) continue;  // trace gap: export never recorded
          if (ap == assoc)
            classifier.on_tof(next_tof_t, *sweep[ap]);
          else
            heading[ap].add(next_tof_t, *sweep[ap]);
        }
        next_tof_t += config.classifier.tof_period_s;
      }
    }

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
      std::optional<double> current_rssi;
      if (rssi_fault[assoc].deliver(t))
        current_rssi = src.rssi_dbm(static_cast<std::uint32_t>(assoc),
                                    rssi_fault[assoc].measured_t(t));
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
        std::size_t best_candidate = assoc;
        double best_rssi = *current_rssi - 1.0;
        for (std::size_t ap = 0; ap < src.n_units(); ++ap) {
          if (ap == assoc) continue;
          if (heading[ap].trend() != TofTrend::kDecreasing) continue;
          const auto rssi =
              src.scan_rssi_dbm(static_cast<std::uint32_t>(ap), t);
          if (rssi && *rssi >= best_rssi) {
            best_rssi = *rssi;
            best_candidate = ap;
          }
        }
        if (best_candidate != assoc) {
          begin_handoff(best_candidate);
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

    ground_csi(src.csi_true(static_cast<std::uint32_t>(assoc), t, h_start),
               "h_start");
    double snr = effective_snr_db(
        h_start, ground(src.snr_db(static_cast<std::uint32_t>(assoc), t),
                        "serving snr"));
    if (have_fb) snr += std::max(0.0, su_beamforming_gain_db(h_start, fb_csi));

    ground_csi(src.csi_true(static_cast<std::uint32_t>(assoc),
                            t + plan.frame_airtime_s, h_end),
               "h_end");
    const double decorr_end = 1.0 - complex_correlation(h_start, h_end);

    int n_failed = 0;
    for (int i = 0; i < plan.n_mpdus; ++i) {
      const double decorr = decorr_end * plan.mpdu_age_fraction(i);
      const double p = per_with_aging(entry, snr, config.mpdu_payload_bytes,
                                      decorr, config.error_model);
      if (rng.chance(p)) ++n_failed;
    }

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
