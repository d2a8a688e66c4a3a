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

/// The subcarriers effective_snr_db's scratch holds without allocating.
inline constexpr std::size_t kInlineSubcarrierScratch = 256;

/// Effective SNR of a frequency-selective channel: maps per-subcarrier SNRs
/// through Shannon capacity, averages, and inverts. Equal or lower than the
/// wideband (mean-power) SNR; equality on a flat channel. Allocation-free
/// up to kInlineSubcarrierScratch subcarriers.
double effective_snr_db(const CsiMatrix& csi, double wideband_snr_db);

/// The sums of one pass over two CSI planes a and b of n_pairs x n_sc
/// entries each, in data order ((tx * n_rx + rx) * n_sc + sc).
struct CsiPassSums {
  double na = 0.0;  ///< sum of |a|^2, added as CsiMatrix::mean_power() adds
  double nb = 0.0;  ///< sum of |b|^2
  cplx dot{};       ///< sum of conj(a) * b
};

/// The pass effective_snr_db and FrameChannel::measure (mac/observer.hpp)
/// both make, four entries at a time on every SIMD tier: also adds
/// subcarrier sc's |a|^2 into pow_sc[sc] (n_sc slots, zeroed by the
/// caller), its pairs in (tx, rx) order. Each sum adds the same terms in
/// the same order as a serial sweep of its own with std::norm and
/// std::complex products would, so its bits are that sweep's; a NaN or
/// infinite entry gives a NaN correlation either way. a and b may alias.
CsiPassSums csi_pass(const cplx* a, const cplx* b, std::size_t n_pairs,
                     std::size_t n_sc, double* pow_sc);

/// The capacity mapping of effective_snr_db over the sums of csi_pass:
/// mean_pow, the mean |H|^2 of all entries (> 0), and the pow_sc plane of
/// n_sc per-subcarrier sums over n_pairs antenna pairs. Subcarrier sc's SNR
/// is wideband * (pow_sc[sc] / n_pairs) / mean_pow; the capacities
/// log2(1 + SNR) are averaged and inverted. The plane is scratch: it is
/// left holding the log2 arguments.
double effective_snr_db_from_powers(double wideband_snr_db, double mean_pow,
                                    std::size_t n_pairs, double* pow_sc,
                                    std::size_t n_sc);

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
