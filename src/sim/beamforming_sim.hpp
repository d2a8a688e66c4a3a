// beamforming_sim.hpp — §6: SU beamforming and MU-MIMO under CSI staleness.
//
// Both emulators step a link at a fine time slot; at each slot the AP
// precodes with the CSI it last received from the client, which refreshes
// only every feedback period. Each refresh also consumes airtime (sounding +
// report at the lowest rate), so short periods tax static clients while long
// periods starve mobile ones — the tension Fig. 11(a)/12(a) plots. The
// adaptive scheme picks the Table-2 period for each client's classified
// mobility mode.
//
// Every PHY read goes through a trace::ObservableSource at unit 0: the
// classifier reads csi/tof_cycles, the sounding exchange csi_feedback, and
// the emulator's ground truth csi_true/snr_db. Over a live source that is the
// synthetic emulation; over a RecordingSource -> TraceSource pair it is the
// paper's §6.2 method ("we fed the series of CSI values to a MU-MIMO
// emulator"): record once, replay every scheme over identical conditions.
#pragma once

#include <span>
#include <vector>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "phy/csi_feedback.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

struct BeamformingSimConfig {
  double duration_s = 20.0;
  double slot_s = 2e-3;
  bool adaptive_period = false;   ///< Table-2 period per classified mode
  double fixed_period_s = 20e-3;  ///< stock statically-configured period
  int mpdu_payload_bytes = 1500;
  double mac_efficiency = 0.70;
  MobilityClassifier::Config classifier;
  ErrorModelConfig error_model;
  CsiFeedbackConfig feedback;
};

struct SuBeamformingResult {
  double throughput_mbps = 0.0;
  double mean_gain_db = 0.0;        ///< realized beamforming gain
  double overhead_fraction = 0.0;   ///< airtime share spent on feedback
};

/// Single-user transmit beamforming on unit 0 of `src` (Fig. 11). Throws
/// FrameSimConfigError (mac/frame_sim_config.hpp) for a config the slot loop
/// cannot finish, and TraceError::kMissingStream for a source lacking a
/// stream the emulator reads.
SuBeamformingResult simulate_su_beamforming(trace::ObservableSource& src,
                                            const BeamformingSimConfig& config);

/// The live emulation over one scenario's channel.
SuBeamformingResult simulate_su_beamforming(Scenario& scenario,
                                            const BeamformingSimConfig& config);

struct MuMimoSimResult {
  std::vector<double> per_client_mbps;
  double total_mbps = 0.0;
};

/// MU-MIMO downlink to `clients.size()` single-antenna clients (Fig. 12),
/// one source per client, each read at unit 0. Every client's CSI must have
/// n_rx = 1, and the count must not exceed the AP antenna count. Throws as
/// simulate_su_beamforming does.
MuMimoSimResult simulate_mu_mimo(
    std::span<trace::ObservableSource* const> clients,
    const BeamformingSimConfig& config);

/// The live emulation over each scenario's channel.
MuMimoSimResult simulate_mu_mimo(const std::vector<Scenario*>& clients,
                                 const BeamformingSimConfig& config);

}  // namespace mobiwlan
