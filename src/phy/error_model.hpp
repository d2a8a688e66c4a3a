// error_model.hpp — SNR -> BER -> PER mapping for the 802.11n PHY.
//
// The MAC substrate needs, for every transmitted (sub)frame, the probability
// that it fails at a given bit-rate and channel state. We use the textbook
// AWGN bit-error-rate expressions per modulation, an effective coding gain
// per convolutional code rate, and an effective-SNR reduction for
// frequency-selective channels (the same idea as Halperin et al.'s ESNR,
// which the paper compares against).
#pragma once

#include <cmath>
#include <cstddef>

#include "phy/csi.hpp"
#include "phy/mcs.hpp"
#include "util/units.hpp"

namespace mobiwlan {

struct ErrorModelConfig {
  /// SNR penalty per extra spatial stream (power split + stream separation).
  double stream_penalty_db = 3.0;
  /// Implementation loss vs. theory (filters, CFO, quantization).
  double implementation_loss_db = 1.5;
};

/// Uncoded AWGN bit error rate for a modulation at per-bit... per-symbol SNR
/// (linear treatment internally; argument in dB).
double raw_ber(Modulation modulation, double snr_db);

/// Coded BER: models convolutional coding as an SNR gain before the raw
/// BER mapping, with a steepening exponent to approximate the waterfall.
/// Never above raw_ber at the same SNR (see the proof at the definition).
double coded_ber(Modulation modulation, double code_rate, double snr_db);

/// Packet error rate of `payload_bytes` at the given MCS and post-processing
/// per-stream SNR.
double per_from_snr(const McsEntry& mcs_entry, double snr_db, int payload_bytes,
                    const ErrorModelConfig& config = {});

/// Per-stream post-processing SNR for an MCS given the wideband link SNR:
/// subtracts stream power split, stream separation penalty, and
/// implementation loss.
double per_stream_snr_db(const McsEntry& mcs_entry, double link_snr_db,
                         const ErrorModelConfig& config = {});

/// Effective SNR of a frequency-selective channel: maps per-subcarrier SNRs
/// through Shannon capacity, averages, and inverts. Equal or lower than the
/// wideband (mean-power) SNR; equality on a flat channel.
double effective_snr_db(const CsiMatrix& csi, double wideband_snr_db);

/// The capacity mapping of effective_snr_db over the sums a pass of the CSI
/// made: mean_pow, the mean |H|^2 of all entries (> 0), and pow_sum(sc),
/// subcarrier sc's |H|^2 summed over its n_pairs antenna pairs in (tx, rx)
/// order. Subcarrier sc's SNR is wideband * (pow_sum(sc) / n_pairs) /
/// mean_pow. effective_snr_db and FrameChannel's one-pass read
/// (mac/observer.hpp) both end here, so equal sums give equal bits.
template <class PowSum>
double effective_snr_db_from_powers(double wideband_snr_db, double mean_pow,
                                    std::size_t n_pairs, std::size_t n_sc,
                                    PowSum&& pow_sum) {
  const double wideband_lin = db_to_linear(wideband_snr_db);
  double cap_sum = 0.0;
  for (std::size_t sc = 0; sc < n_sc; ++sc) {
    const double pow_sc = pow_sum(sc) / static_cast<double>(n_pairs);
    cap_sum += std::log2(1.0 + wideband_lin * pow_sc / mean_pow);
  }
  const double mean_cap = cap_sum / static_cast<double>(n_sc);
  return linear_to_db(std::pow(2.0, mean_cap) - 1.0);
}

/// PER after the channel aged for `decorrelation` in [0,1] since the
/// preamble estimate (0 = fresh, 1 = fully decorrelated). The receiver
/// equalizes with the stale estimate, so a fraction `d` of the signal power
/// turns into self-interference:
///     SINR = (1 - d) / (1/snr + d)
/// — an error floor that no SNR can overcome, which is exactly why long
/// A-MPDUs fail under mobility (§5) regardless of link quality.
double per_with_aging(const McsEntry& mcs_entry, double snr_db, int payload_bytes,
                      double decorrelation, const ErrorModelConfig& config = {});

/// The post-equalization SINR (dB) after the channel decorrelated by `d`
/// since the estimate: SINR = (1-d) / (1/snr + d).
double aged_snr_db(double snr_db, double decorrelation);

/// aged_snr_db with the link SNR passed as 1/snr (linear), so the MPDUs of
/// one frame share a single db_to_linear. Bitwise equal to
/// aged_snr_db(snr_db, d) for inv_snr = 1.0 / db_to_linear(snr_db).
double aged_snr_db_from_inverse(double inv_snr, double decorrelation);

/// The SNR -> BER -> PER chain of one MCS and payload size, with the
/// per-call constants (coding gain, stream power split, payload bits)
/// computed once at construction. per_from_snr runs through it, and the
/// A-MPDU kernel (mac/aggregation.hpp) builds one per frame so that each
/// MPDU pays only for its own SNR. Results are bitwise those of
/// coded_ber(per_stream_snr_db(...)) and per_from_snr.
class ErrorChain {
 public:
  ErrorChain(const McsEntry& mcs_entry, int payload_bytes,
             const ErrorModelConfig& config = {});

  /// Coded BER at the per-stream SNR of a link SNR (dB): the value that
  /// drives the PER and that a SoftPHY receiver reports.
  double ber(double link_snr_db) const;

  /// Packet error rate of one payload at coded bit error rate `ber`.
  double per(double ber) const;

 private:
  ErrorModelConfig config_;
  Modulation modulation_;
  int streams_;
  double gain_db_;
  double split_db_;
  double bits_;
};

/// The MCS maximizing expected MAC throughput rate*(1-PER) at this SNR —
/// the oracle the paper's Fig. 8 uses ("optimal bit-rate").
int best_mcs(double link_snr_db, int payload_bytes, int max_streams,
             const ErrorModelConfig& config = {});

/// Expected MAC-layer throughput rate*(1-PER) in Mbps for an MCS at a SNR.
double expected_throughput_mbps(const McsEntry& mcs_entry, double link_snr_db,
                                int payload_bytes,
                                const ErrorModelConfig& config = {});

}  // namespace mobiwlan
