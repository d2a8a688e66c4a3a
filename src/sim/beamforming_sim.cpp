#include "sim/beamforming_sim.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "core/policy.hpp"
#include "mac/frame_sim_config.hpp"
#include "mac/observer.hpp"
#include "phy/beamforming.hpp"
#include "phy/mcs.hpp"
#include "util/stats.hpp"

namespace mobiwlan {

namespace {

using trace::StreamKind;

/// The Table-2 feedback-period column a loop adapts with.
using PeriodColumn = double ProtocolParams::*;

/// Tracks one client's feedback loop over its source: classifier, period
/// choice, stale CSI.
class FeedbackLoop {
 public:
  FeedbackLoop(trace::ObservableSource& src, const BeamformingSimConfig& config,
               PeriodColumn column)
      : src_(src),
        config_(config),
        column_(column),
        observer_(config.classifier, 1) {}

  /// Advance measurement processes to time t; run a sounding exchange when
  /// the feedback period elapses. Returns true if an exchange happened in
  /// this call (its airtime is charged by the caller, whether or not its
  /// report was served).
  bool advance(double t) {
    observer_.advance(src_, 0, t);
    const bool due = !have_feedback_ || t - last_feedback_t_ >= period();
    if (!due) return false;
    last_feedback_t_ = t;
    if (src_.csi_feedback(0, t, feedback_csi_)) have_feedback_ = true;
    return true;
  }

  /// Current feedback period: the fixed one until the classifier has a
  /// similarity, then the Table-2 period of its mode in this loop's column.
  double period() const {
    const MobilityClassifier& classifier = observer_.classifier();
    if (!config_.adaptive_period || !classifier.similarity())
      return config_.fixed_period_s;
    return mobility_params(classifier.mode()).*column_;
  }

  const CsiMatrix& feedback_csi() const { return feedback_csi_; }
  bool ready() const { return have_feedback_; }

 private:
  trace::ObservableSource& src_;
  const BeamformingSimConfig& config_;
  PeriodColumn column_;
  MobilityObserver observer_;
  CsiMatrix feedback_csi_;
  bool have_feedback_ = false;
  double last_feedback_t_ = 0.0;
};

/// Rejects a config the slot and cadence loops cannot finish, and a source
/// that lacks a stream the emulator reads.
void check_inputs(const char* who, const BeamformingSimConfig& config,
                  std::span<trace::ObservableSource* const> sources) {
  validate_frame_sim_config(who, config.duration_s, config.mpdu_payload_bytes,
                            &config.classifier);
  require_finite_positive(FrameSimConfigError::Code::kBadSlot, who, "slot_s",
                          config.slot_s);
  for (const trace::ObservableSource* src : sources)
    src->require({StreamKind::kCsi, StreamKind::kTof, StreamKind::kCsiFeedback,
                  StreamKind::kTrueCsi, StreamKind::kSnr},
                 who);
}

/// The emulator's ground truth at t: true CSI into `csi` and the wideband
/// SNR, or nullopt when the source cannot serve both.
std::optional<double> ground_truth(trace::ObservableSource& src, double t,
                                   CsiMatrix& csi) {
  const bool have_csi = src.csi_true(0, t, csi);
  const std::optional<double> snr = src.snr_db(0, t);
  if (!have_csi) return std::nullopt;
  return snr;
}

double rate_at_snr(double snr_db, const BeamformingSimConfig& config,
                   int max_streams) {
  const int best = best_mcs(snr_db, config.mpdu_payload_bytes, max_streams,
                            config.error_model);
  return expected_throughput_mbps(mcs(best), snr_db, config.mpdu_payload_bytes,
                                  config.error_model) *
         config.mac_efficiency;
}

}  // namespace

SuBeamformingResult simulate_su_beamforming(trace::ObservableSource& src,
                                            const BeamformingSimConfig& config) {
  trace::ObservableSource* const sources[] = {&src};
  check_inputs("simulate_su_beamforming", config, sources);
  FeedbackLoop loop(src, config, &ProtocolParams::bf_update_period_s);
  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);

  OnlineStats gain_stats;
  double delivered_mbit = 0.0;
  double feedback_time = 0.0;
  CsiMatrix now;

  for (double t = 0.0; t < config.duration_s; t += config.slot_s) {
    if (loop.advance(t)) feedback_time += fb_airtime;
    if (!loop.ready()) continue;
    const std::optional<double> snr0 = ground_truth(src, t, now);
    if (!snr0) continue;

    const double gain_db = su_beamforming_gain_db(now, loop.feedback_csi());
    gain_stats.add(gain_db);
    const double snr = effective_snr_db(now, *snr0) + gain_db;
    // Beamforming precodes a single stream across the AP antennas.
    delivered_mbit += rate_at_snr(snr, config, 1) * config.slot_s;
  }

  SuBeamformingResult result;
  result.overhead_fraction =
      std::min(1.0, feedback_time / config.duration_s);
  result.throughput_mbps =
      delivered_mbit / config.duration_s * (1.0 - result.overhead_fraction);
  result.mean_gain_db = gain_stats.mean();
  return result;
}

SuBeamformingResult simulate_su_beamforming(Scenario& scenario,
                                            const BeamformingSimConfig& config) {
  trace::LiveChannelSource live(*scenario.channel);
  return simulate_su_beamforming(live, config);
}

MuMimoSimResult simulate_mu_mimo(
    std::span<trace::ObservableSource* const> clients,
    const BeamformingSimConfig& config) {
  check_inputs("simulate_mu_mimo", config, clients);
  const std::size_t k = clients.size();
  std::vector<FeedbackLoop> loops;
  loops.reserve(k);
  for (trace::ObservableSource* src : clients)
    loops.emplace_back(*src, config, &ProtocolParams::mumimo_update_period_s);

  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);
  std::vector<double> delivered_mbit(k, 0.0);
  double feedback_time = 0.0;
  std::vector<CsiMatrix> current(k);
  std::vector<CsiMatrix> stale(k);
  std::vector<double> snr0(k);

  for (double t = 0.0; t < config.duration_s; t += config.slot_s) {
    bool all_ready = true;
    for (auto& loop : loops) {
      if (loop.advance(t)) feedback_time += fb_airtime;
      all_ready = all_ready && loop.ready();
    }
    if (!all_ready) continue;

    // A slot is scored only when every client's ground truth is served.
    bool scored = true;
    for (std::size_t i = 0; i < k; ++i) {
      const std::optional<double> snr =
          ground_truth(*clients[i], t, current[i]);
      scored = scored && snr.has_value();
      snr0[i] = snr.value_or(0.0);
      stale[i] = loops[i].feedback_csi();
    }
    if (!scored) continue;

    const MuMimoResult zf = mu_mimo_zero_forcing(current, stale, snr0);
    for (std::size_t i = 0; i < k; ++i)
      delivered_mbit[i] +=
          rate_at_snr(zf.sinr_db[i], config, 1) * config.slot_s;
  }

  MuMimoSimResult result;
  const double overhead = std::min(1.0, feedback_time / config.duration_s);
  result.per_client_mbps.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    result.per_client_mbps[i] =
        delivered_mbit[i] / config.duration_s * (1.0 - overhead);
    result.total_mbps += result.per_client_mbps[i];
  }
  return result;
}

MuMimoSimResult simulate_mu_mimo(const std::vector<Scenario*>& clients,
                                 const BeamformingSimConfig& config) {
  std::deque<trace::LiveChannelSource> live;
  std::vector<trace::ObservableSource*> sources;
  for (Scenario* c : clients)
    sources.push_back(&live.emplace_back(*c->channel));
  return simulate_mu_mimo(sources, config);
}

}  // namespace mobiwlan
