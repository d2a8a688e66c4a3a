// overall_sim.hpp — §7: the end-to-end system experiment (Fig. 13).
//
// One client walks through a 6-AP floor while the AP stack runs either the
// full mobility-aware suite — controller-steered roaming, Table-2 rate
// adaptation, adaptive aggregation, adaptive beamforming feedback — or the
// stock mobility-oblivious defaults. Frame-level simulation: every A-MPDU
// exchange, every feedback sounding, and every handoff outage occupies
// airtime.
#pragma once

#include <vector>

#include "core/mobility_classifier.hpp"
#include "fault/fault.hpp"
#include "net/deployment.hpp"
#include "phy/airtime.hpp"
#include "phy/csi_feedback.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

struct OverallSimConfig {
  bool mobility_aware = true;  ///< all four optimizations on, or all off
  double duration_s = 60.0;
  int mpdu_payload_bytes = 1500;

  // Roaming.
  double handoff_outage_s = 0.20;
  double rssi_threshold_dbm = -85.0;
  double min_scan_gap_s = 4.0;
  double steer_cooldown_s = 5.0;
  double roam_check_period_s = 0.10;

  MobilityClassifier::Config classifier;
  ErrorModelConfig error_model;
  AirtimeConfig airtime;
  CsiFeedbackConfig feedback;

  /// PHY-observable fault injection on the controller-facing exports
  /// (unit = AP index). The beamforming sounding is an active protocol
  /// exchange and is never faulted. An all-zero plan is bitwise-identical
  /// to the unfaulted path.
  FaultPlan fault;
};

struct OverallSimResult {
  double throughput_mbps = 0.0;
  int handoffs = 0;
  double outage_s = 0.0;
  std::vector<std::pair<double, std::size_t>> associations;
};

/// Wraps the deployment in a LiveDeploymentSource and delegates to the
/// source-driven overload (the per-AP fault-stream gating stays inside the
/// loop because the batched ToF sweep must always run).
OverallSimResult simulate_overall(WlanDeployment& wlan,
                                  const OverallSimConfig& config, Rng& rng);

/// Source-driven overload (unit = AP index). config.fault IS applied here —
/// the loop gates exports with its own per-AP fault streams (the batched ToF
/// sweep always draws for every AP; drops lose individual exports after the
/// fact) — so do NOT also wrap the source in a FaultedSource.
OverallSimResult simulate_overall(trace::ObservableSource& src,
                                  const OverallSimConfig& config, Rng& rng);

}  // namespace mobiwlan
