#include "mac/latency_sim.hpp"

#include <bit>
#include <cstdint>

#include "mac/frame_sim_config.hpp"
#include "mac/observer.hpp"
#include "phy/mcs.hpp"

namespace mobiwlan {

int draw_ampdu_deliveries(const McsEntry& mcs_entry, double snr_db,
                          double decorr_end, int n_mpdus, const PerGrid& grid,
                          Rng& rng, std::vector<bool>& delivered) {
  const std::uint64_t lost =
      ampdu_mpdu_losses(mcs_entry, snr_db, decorr_end, n_mpdus, grid, rng);
  delivered.resize(static_cast<std::size_t>(n_mpdus));
  for (std::size_t i = 0; i < delivered.size(); ++i)
    delivered[i] = (lost >> i & 1) == 0;
  return std::popcount(lost);
}

LatencySimResult simulate_latency(Scenario& scenario, RateAdapter& ra,
                                  const LatencySimConfig& config, Rng& rng) {
  trace::LiveChannelSource live(*scenario.channel);
  trace::FaultedSource src(live, config.fault);
  return simulate_latency(src, ra, config, rng);
}

LatencySimResult simulate_latency(trace::ObservableSource& src, RateAdapter& ra,
                                  const LatencySimConfig& config, Rng& rng) {
  using trace::StreamKind;
  constexpr const char* kLoop = "latency sim";
  validate_frame_sim_config(
      kLoop, config.duration_s, config.mpdu_payload_bytes,
      config.run_classifier ? &config.classifier : nullptr);
  require_loss_payload(kLoop, config.mpdu_payload_bytes);
  require_finite_positive(FrameSimConfigError::Code::kBadOfferedLoad, kLoop,
                          "offered_pps", config.offered_pps);
  src.require({StreamKind::kTrueCsi, StreamKind::kSnr}, kLoop);
  if (config.run_classifier)
    src.require({StreamKind::kCsi, StreamKind::kTof},
                "latency sim classifier");

  MobilityObserver observer(config.classifier, 1);
  BlockAckWindow window(config.blockack);
  const PerGrid& per_grid =
      PerGrid::shared(config.mpdu_payload_bytes, config.error_model);

  LatencySimResult result;
  double t = 0.0;
  double next_arrival_t = 0.0;
  const double inter_arrival = 1.0 / config.offered_pps;
  long delivered_bytes = 0;

  FrameChannel ch;
  std::vector<bool> delivered;
  delivered.reserve(kMaxAmpduMpdus);

  while (t < config.duration_s) {
    // CBR arrivals up to now. The flow stops at duration_s: arrivals at or
    // past the horizon are never offered.
    while (next_arrival_t <= t && next_arrival_t < config.duration_s) {
      window.enqueue(next_arrival_t);
      ++result.offered;
      next_arrival_t += inter_arrival;
    }

    if (config.run_classifier) observer.advance(src, 0, t);

    TxContext ctx;
    ctx.t = t;
    ctx.mpdu_payload_bytes = config.mpdu_payload_bytes;
    // Hold-then-decay: no mobility hint once the CSI stream goes stale.
    if (config.run_classifier)
      ctx.mobility = observer.classifier().decision(t);

    if (window.queued() == 0 && window.in_flight() == 0 &&
        !window.window_stalled()) {
      if (next_arrival_t >= config.duration_s) break;  // flow is over
      // Idle: jump to the next packet arrival.
      t = std::max(t, next_arrival_t);
      continue;
    }

    const int mcs_index = ra.select_mcs(ctx);
    const McsEntry& entry = mcs(mcs_index);
    const double limit = aggregation_limit_s(config.aggregation, ctx.mobility);
    const int max_mpdus =
        mpdus_within_time(entry, limit, config.mpdu_payload_bytes, config.airtime);

    const auto frame = window.next_frame(t, max_mpdus);
    if (frame.empty()) {
      // Window stalled with nothing retransmittable this instant; let time
      // advance by one slot of airtime.
      t += 1e-3;
      continue;
    }

    const int n = static_cast<int>(frame.size());
    const double frame_airtime =
        ampdu_airtime_s(entry, n, config.mpdu_payload_bytes, config.airtime);
    const double ack_t =
        t + exchange_airtime_s(entry, n, config.mpdu_payload_bytes,
                               config.airtime);
    if (ack_t > config.duration_s) {
      // The final exchange would complete past the horizon; it never counts
      // toward goodput (which divides by duration_s), so the frame stays
      // unresolved and its MPDUs land in `leftover`.
      break;
    }
    ch.read(src, 0, t, frame_airtime, kLoop);

    const int n_failed =
        draw_ampdu_deliveries(entry, ch.eff_snr_db, ch.decorr_end, n,
                              per_grid, rng, delivered);

    const auto outcome = window.on_block_ack(frame, delivered);
    for (const TrackedMpdu& m : outcome.delivered) {
      result.latencies_s.add(ack_t - m.enqueue_t);
      ++result.delivered;
      delivered_bytes += config.mpdu_payload_bytes;
    }
    result.dropped += static_cast<int>(outcome.dropped.size());

    FrameResult fr;
    fr.t = t;
    fr.mcs = mcs_index;
    fr.n_mpdus = n;
    fr.n_failed = n_failed;
    fr.block_ack_received = n_failed < n;
    ra.on_result(fr, ctx);

    t = ack_t;
  }

  // Arrivals the service loop never reached (it can exit with t well short
  // of duration_s) are still offered load; drain them into the queue so the
  // conservation identity holds.
  while (next_arrival_t < config.duration_s) {
    window.enqueue(next_arrival_t);
    ++result.offered;
    next_arrival_t += inter_arrival;
  }
  result.leftover = static_cast<int>(window.queued() + window.in_flight() +
                                     window.pending_retransmit());

  result.goodput_mbps =
      8.0 * static_cast<double>(delivered_bytes) / config.duration_s / 1e6;
  return result;
}

}  // namespace mobiwlan
