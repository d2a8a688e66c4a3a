#include "net/roaming.hpp"

#include <algorithm>

#include "mac/frame_sim_config.hpp"
#include "mac/observer.hpp"
#include "net/deployment_source.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan {

std::string_view to_string(RoamingScheme s) {
  switch (s) {
    case RoamingScheme::kDefault: return "default-roaming";
    case RoamingScheme::kSensorHint: return "sensor-hint-roaming";
    case RoamingScheme::kMotionAware: return "motion-aware-roaming";
  }
  return "?";
}

namespace {

/// Deliverable PHY throughput on a link at the given SNR: best MCS,
/// discounted by MAC efficiency.
double link_rate_mbps(double snr, const RoamingConfig& config) {
  const int best = best_mcs(snr, config.mpdu_payload_bytes, 2, config.error_model);
  return expected_throughput_mbps(mcs(best), snr, config.mpdu_payload_bytes,
                                  config.error_model) *
         config.mac_efficiency;
}

}  // namespace

RoamingResult simulate_roaming(WlanDeployment& wlan, RoamingScheme scheme,
                               const RoamingConfig& config) {
  LiveDeploymentSource live(wlan);
  trace::FaultedSource src(live, config.fault);
  return simulate_roaming(src, scheme, config, wlan.client().mobility_class());
}

RoamingResult simulate_roaming(trace::ObservableSource& src,
                               RoamingScheme scheme,
                               const RoamingConfig& config,
                               MobilityClass client_class) {
  using trace::StreamKind;
  constexpr const char* kLoop = "roaming sim";
  const bool aware = scheme == RoamingScheme::kMotionAware;
  validate_frame_sim_config(kLoop, config.duration_s,
                            config.mpdu_payload_bytes,
                            aware ? &config.classifier : nullptr);
  require_finite_positive(FrameSimConfigError::Code::kBadSlot, kLoop,
                          "step_s", config.step_s);
  src.require({StreamKind::kSnr, StreamKind::kRssi, StreamKind::kScanRssi},
              kLoop);
  if (aware)
    src.require({StreamKind::kCsi, StreamKind::kTof}, "motion-aware roaming");

  RoamingResult result;

  std::size_t assoc = src.strongest_unit(0.0).value_or(0);
  result.associations.emplace_back(0.0, assoc);

  // Motion-aware state: classifier on the serving AP, heading trackers at
  // every neighbour (§3.1).
  MobilityObserver observer(config.classifier, src.n_units());

  double delivered_mbit = 0.0;
  double outage_until = 0.0;
  double next_scan_t = config.scan_interval_s;
  double steer_ok_t = 0.0;
  double threshold_scan_ok_t = 0.0;

  auto weak_signal = [&](double t, double rssi) {
    if (rssi >= config.rssi_threshold_dbm || t < threshold_scan_ok_t) return false;
    threshold_scan_ok_t = t + config.min_scan_gap_s;
    return true;
  };

  // Dead air is a single extend-only window: overlapping causes (a periodic
  // scan that immediately triggers a handoff) merge instead of double-counting,
  // and `result.outage_s` counts exactly the realized window extension.
  auto add_outage = [&](double t, double dur) {
    const double until = std::max(outage_until, t + dur);
    result.outage_s += until - std::max(outage_until, t);
    outage_until = until;
  };

  auto begin_handoff = [&](double t, std::size_t target, double outage) {
    assoc = target;
    add_outage(t, outage);
    ++result.handoffs;
    result.associations.emplace_back(t, target);
    observer.reassociate();
  };

  for (double t = 0.0; t < config.duration_s; t += config.step_s) {
    if (aware) observer.advance(src, assoc, t);

    if (t < outage_until) continue;  // scanning/associating: no goodput

    const double snr = trace::ground(
        src.snr_db(static_cast<std::uint32_t>(assoc), t), kLoop, "serving snr");
    delivered_mbit += link_rate_mbps(snr, config) * config.step_s;

    // Serving-link RSSI as exported by the AP firmware; the export can be
    // lost or stale. Scan measurements of *other* APs below are made fresh
    // by the client itself during the scan, so they are never faulted.
    const std::optional<double> current_rssi =
        src.rssi_dbm(static_cast<std::uint32_t>(assoc), t);

    switch (scheme) {
      case RoamingScheme::kDefault:
        // Stock client: roam only when the serving AP becomes weak. A lost
        // RSSI export simply means no roam decision this tick — the stock
        // client degrades to staying put, never to a spurious handoff.
        if (current_rssi && weak_signal(t, *current_rssi)) {
          if (const auto target = src.strongest_unit(t))
            begin_handoff(t, *target, config.handoff_outage_s);
        }
        break;

      case RoamingScheme::kSensorHint: {
        if (current_rssi && weak_signal(t, *current_rssi)) {
          if (const auto target = src.strongest_unit(t))
            begin_handoff(t, *target, config.handoff_outage_s);
          break;
        }
        const bool moving = client_class == MobilityClass::kMicro ||
                            client_class == MobilityClass::kMacro;
        if (moving && t >= next_scan_t) {
          next_scan_t = t + config.scan_interval_s;
          // The periodic scan itself costs airtime whether or not it helps.
          add_outage(t, config.scan_cost_s);
          ++result.scans;
          const auto best = src.strongest_unit(t);
          // A scan re-measures the serving AP too, so a lost passive export
          // is repaired here at the scan's cost (extra read only on faulted
          // paths — the zero-fault RNG sequence is untouched).
          const std::optional<double> serving_rssi =
              current_rssi
                  ? current_rssi
                  : src.scan_rssi_dbm(static_cast<std::uint32_t>(assoc), t);
          if (best && serving_rssi && *best != assoc) {
            const auto candidate_rssi =
                src.scan_rssi_dbm(static_cast<std::uint32_t>(*best), t);
            if (candidate_rssi &&
                *candidate_rssi > *serving_rssi + config.better_margin_db)
              begin_handoff(t, *best, config.handoff_outage_s);
          }
        }
        break;
      }

      case RoamingScheme::kMotionAware: {
        // The stock client behaviour still applies underneath (§3.1: "does
        // not impose any changes in the client's association mechanism").
        if (current_rssi && weak_signal(t, *current_rssi)) {
          if (const auto target = src.strongest_unit(t))
            begin_handoff(t, *target, config.handoff_outage_s);
          break;
        }
        if (t < steer_ok_t) break;
        // Graceful degradation: steer only on a *fresh* classification.
        // decision(t) decays to nullopt when the CSI stream goes stale, and
        // the heading trackers reset their trend windows across ToF gaps, so
        // under heavy export loss this scheme falls back to the stock
        // weak-signal behaviour above rather than steering on stale state.
        const std::optional<MobilityMode> decided =
            observer.classifier().decision(t);
        if (!decided || *decided != MobilityMode::kMacroAway) break;
        if (!current_rssi) break;  // no serving baseline to compare against
        if (const auto target =
                observer.steer_target(src, assoc, *current_rssi, t)) {
          // Forced disassociation -> client rescans -> candidate APs answer.
          begin_handoff(t, *target, config.handoff_outage_s);
          steer_ok_t = t + config.steer_cooldown_s;
        }
        break;
      }
    }
  }

  result.mean_throughput_mbps = delivered_mbit / config.duration_s;
  return result;
}

std::pair<double, double> oracle_vs_stick(WlanDeployment& wlan,
                                          const RoamingConfig& config) {
  constexpr const char* kLoop = "oracle vs stick";
  validate_frame_sim_config(kLoop, config.duration_s,
                            config.mpdu_payload_bytes, nullptr);
  require_finite_positive(FrameSimConfigError::Code::kBadSlot, kLoop,
                          "step_s", config.step_s);
  LiveDeploymentSource src(wlan);
  const auto initial = static_cast<std::uint32_t>(*src.strongest_unit(0.0));
  double best_sum = 0.0;
  double stick_sum = 0.0;
  int steps = 0;
  for (double t = 0.0; t < config.duration_s; t += config.step_s) {
    const auto best = static_cast<std::uint32_t>(*src.strongest_unit(t));
    best_sum += link_rate_mbps(*src.snr_db(best, t), config);
    stick_sum += link_rate_mbps(*src.snr_db(initial, t), config);
    ++steps;
  }
  if (steps == 0) return {0.0, 0.0};
  return {best_sum / steps, stick_sum / steps};
}

}  // namespace mobiwlan
