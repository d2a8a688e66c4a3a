// roaming.hpp — client roaming schemes (§3).
//
// Three schemes over the same deployment:
//
//   kDefault     — the stock client: stick with the associated AP until its
//                  RSSI drops below a threshold, then full-scan and join the
//                  strongest AP. "A moving client may be close to a stronger
//                  AP, but it does not try to discover it" (§3).
//   kSensorHint  — the NSDI'11 client-side scheme: when the accelerometer
//                  says the device is moving, scan periodically (each scan
//                  costs airtime and an outage) and switch to a stronger AP.
//   kMotionAware — the paper's controller-based scheme (§3.1): the current
//                  AP classifies the client; only when it is *walking away*
//                  does the controller poll neighbor APs for RSSI + heading
//                  (their own ToF trends), pick candidates the client is
//                  moving toward with similar-or-better signal, force a
//                  disassociation, and steer the client to the best one.
//                  No client modification is required.
#pragma once

#include <vector>

#include "core/mobility_classifier.hpp"
#include "fault/fault.hpp"
#include "net/deployment.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

enum class RoamingScheme { kDefault, kSensorHint, kMotionAware };

std::string_view to_string(RoamingScheme s);

struct RoamingConfig {
  double duration_s = 90.0;
  double step_s = 0.05;               ///< control-loop tick
  double handoff_outage_s = 0.20;     ///< §3.2: full scan + re-association
  double rssi_threshold_dbm = -85.0;  ///< sticky stock client roam trigger
  double min_scan_gap_s = 4.0;        ///< clients rate-limit threshold scans
  double scan_interval_s = 2.0;       ///< sensor-hint periodic scan cadence
  double scan_cost_s = 0.12;          ///< outage per periodic full scan
  double better_margin_db = 3.0;      ///< hysteresis for switching
  double steer_cooldown_s = 5.0;      ///< min gap between controller steers
  int mpdu_payload_bytes = 1500;
  /// MAC efficiency applied on top of PHY-expected throughput.
  double mac_efficiency = 0.70;
  MobilityClassifier::Config classifier;
  ErrorModelConfig error_model;

  /// PHY-observable fault injection, applied per AP (unit = AP index). The
  /// passive serving-link RSSI export is faulted; the active scan's fresh
  /// measurements are not (the client measures those itself). An all-zero
  /// plan is bitwise-identical to the unfaulted path.
  FaultPlan fault;
};

struct RoamingResult {
  double mean_throughput_mbps = 0.0;
  int handoffs = 0;
  int scans = 0;          ///< sensor-hint periodic scans performed
  double outage_s = 0.0;  ///< realized dead-air (extend-only window)
  /// (time, serving AP) at every association change.
  std::vector<std::pair<double, std::size_t>> associations;
};

/// Simulate a download to the walking client under the given scheme. Applies
/// config.fault via a FaultedSource over the deployment and delegates to the
/// source-driven overload. The loop makes no random draw of its own.
RoamingResult simulate_roaming(WlanDeployment& wlan, RoamingScheme scheme,
                               const RoamingConfig& config);

/// Source-driven overload: the same control loop over any multi-unit
/// ObservableSource (unit = AP index). config.fault is NOT applied here —
/// compose a FaultedSource yourself. `client_class` replaces
/// wlan.client().mobility_class() for the sensor-hint scheme's accelerometer.
/// Both overloads throw FrameSimConfigError (mac/frame_sim_config.hpp) for a
/// config they cannot run to completion: step_s is checked as kBadSlot, and
/// the classifier cadences only for kMotionAware.
RoamingResult simulate_roaming(trace::ObservableSource& src,
                               RoamingScheme scheme,
                               const RoamingConfig& config,
                               MobilityClass client_class);

/// Fig. 7(a) helper: throughput of always using the instantaneous strongest
/// AP vs. sticking with the AP chosen at t = 0, over the same run. Returns
/// the pair (always-best, stick-with-initial) in Mbps.
std::pair<double, double> oracle_vs_stick(WlanDeployment& wlan,
                                          const RoamingConfig& config);

}  // namespace mobiwlan
