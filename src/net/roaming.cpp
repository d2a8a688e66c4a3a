#include "net/roaming.hpp"

#include <algorithm>

#include "core/tof_tracker.hpp"
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

/// Serving-link SNR models the medium itself, not a lossy export; a source
/// that cannot serve it cannot drive this loop.
double ground(std::optional<double> v, const char* what) {
  if (!v)
    throw trace::TraceError(trace::TraceError::Code::kMissingStream,
                            std::string("roaming sim: ground-truth observable "
                                        "unavailable from source: ") +
                                what);
  return *v;
}

}  // namespace

RoamingResult simulate_roaming(WlanDeployment& wlan, RoamingScheme scheme,
                               const RoamingConfig& config, Rng& rng) {
  LiveDeploymentSource live(wlan);
  trace::FaultedSource src(live, config.fault);
  return simulate_roaming(src, scheme, config, rng,
                          wlan.client().mobility_class());
}

RoamingResult simulate_roaming(trace::ObservableSource& src,
                               RoamingScheme scheme,
                               const RoamingConfig& config, Rng& rng,
                               MobilityClass client_class) {
  using trace::StreamKind;
  src.require({StreamKind::kSnr, StreamKind::kRssi, StreamKind::kScanRssi},
              "roaming sim");
  if (scheme == RoamingScheme::kMotionAware)
    src.require({StreamKind::kCsi, StreamKind::kTof}, "motion-aware roaming");

  RoamingResult result;
  (void)rng;

  std::size_t assoc = src.strongest_unit(0.0).value_or(0);
  result.associations.emplace_back(0.0, assoc);

  // Motion-aware state: classifier on the serving AP, ToF trackers at every
  // AP (neighbors measure via periodic NULL frames, §3.1). Export loss and
  // staleness live in the source (FaultedSource / a replayed trace): a read
  // that returns absence simply never reaches the classifier or trackers.
  MobilityClassifier classifier(config.classifier);
  std::vector<TofTracker> heading(src.n_units(),
                                  TofTracker(config.classifier.tof));

  CsiMatrix meas_csi;

  double delivered_mbit = 0.0;
  double outage_until = 0.0;
  double next_csi_t = 0.0;
  double next_tof_t = 0.0;
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
    classifier = MobilityClassifier(config.classifier);
  };

  for (double t = 0.0; t < config.duration_s; t += config.step_s) {
    if (scheme == RoamingScheme::kMotionAware) {
      while (next_csi_t <= t) {
        if (src.csi(assoc, next_csi_t, meas_csi))
          classifier.on_csi(next_csi_t, meas_csi);
        next_csi_t += config.classifier.csi_period_s;
      }
      while (next_tof_t <= t) {
        for (std::size_t ap = 0; ap < src.n_units(); ++ap) {
          const auto tof =
              src.tof_cycles(static_cast<std::uint32_t>(ap), next_tof_t);
          if (!tof) continue;
          if (ap == assoc)
            classifier.on_tof(next_tof_t, *tof);
          else
            heading[ap].add(next_tof_t, *tof);
        }
        next_tof_t += config.classifier.tof_period_s;
      }
    }

    if (t < outage_until) continue;  // scanning/associating: no goodput

    delivered_mbit +=
        link_rate_mbps(ground(src.snr_db(static_cast<std::uint32_t>(assoc), t),
                              "serving snr"),
                       config) *
        config.step_s;

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
        const std::optional<MobilityMode> decided = classifier.decision(t);
        if (!decided || *decided != MobilityMode::kMacroAway) break;
        if (!current_rssi) break;  // no serving baseline to compare against
        // Candidate set: APs the client is heading toward (their ToF trend
        // decreases) with similar-or-stronger signal.
        std::size_t best_candidate = assoc;
        double best_rssi = *current_rssi - 1.0;  // "similar or higher"
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
          // Forced disassociation -> client rescans -> candidate APs answer.
          begin_handoff(t, best_candidate, config.handoff_outage_s);
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
  const std::size_t initial = wlan.strongest_ap(0.0);
  ChannelBatch::Scratch scratch;
  double best_sum = 0.0;
  double stick_sum = 0.0;
  int steps = 0;
  for (double t = 0.0; t < config.duration_s; t += config.step_s) {
    const std::size_t best = wlan.strongest_ap(t);
    best_sum += link_rate_mbps(
        ChannelBatch::snr_link(wlan.channel(best), t, scratch), config);
    stick_sum += link_rate_mbps(
        ChannelBatch::snr_link(wlan.channel(initial), t, scratch), config);
    ++steps;
  }
  if (steps == 0) return {0.0, 0.0};
  return {best_sum / steps, stick_sum / steps};
}

}  // namespace mobiwlan
