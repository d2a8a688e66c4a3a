#include "phy/error_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/inline_vec.hpp"
#include "util/lane4.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace mobiwlan {

namespace {

#define MOBIWLAN_LANE4_BODY "phy/csi_pass_kernels.inc"
#include "util/lane4_tiers.inc"

void capacity_args(double* pow_sc, std::size_t n_sc, double n_pairs,
                   double wideband_lin, double mean_pow) {
#if defined(__x86_64__)
  if (simd::use_avx2fma())
    return avx2_tier::capacity_args(pow_sc, n_sc, n_pairs, wideband_lin,
                                    mean_pow);
#endif
  scalar_tier::capacity_args(pow_sc, n_sc, n_pairs, wideband_lin, mean_pow);
}

/// Gaussian Q-function.
double q_func(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// Effective coding gain (dB) of the 802.11 convolutional code at rate r.
double coding_gain_db(double code_rate) {
  if (code_rate <= 0.5) return 5.5;
  if (code_rate <= 2.0 / 3.0) return 4.5;
  if (code_rate <= 0.75) return 4.0;
  return 3.25;  // 5/6
}

/// coded_ber with the code rate's coding gain already looked up.
double coded_ber_at_gain(Modulation modulation, double gain_db, double snr_db) {
  const double b = raw_ber(modulation, snr_db + gain_db);
  return 2.0 * b * b;
}

/// 10*log10(streams): the per-stream power split (0 for one stream).
double stream_split_db(int streams) {
  return streams > 1 ? 10.0 * std::log10(static_cast<double>(streams)) : 0.0;
}

/// per_stream_snr_db with the power split already computed; the
/// subtractions keep their order, so the result is bitwise the same.
double stream_snr_db(double link_snr_db, int streams, double split_db,
                     const ErrorModelConfig& config) {
  double snr = link_snr_db - config.implementation_loss_db;
  if (streams > 1) {
    snr -= split_db;
    snr -= config.stream_penalty_db;
  }
  return snr;
}

}  // namespace

double raw_ber(Modulation modulation, double snr_db) {
  const double snr = db_to_linear(snr_db);
  switch (modulation) {
    case Modulation::kBpsk:
      return q_func(std::sqrt(2.0 * snr));
    case Modulation::kQpsk:
      // Gray-coded QPSK has the same per-bit error rate as BPSK at equal Es/N0
      // per bit: Q(sqrt(Es/N0)) with Es split over two bits.
      return q_func(std::sqrt(snr));
    case Modulation::kQam16: {
      const double arg = std::sqrt(snr / 5.0);  // 3/(M-1) = 1/5
      return (3.0 / 4.0) * q_func(arg);
    }
    case Modulation::kQam64: {
      const double arg = std::sqrt(snr / 21.0);  // 3/(M-1) = 1/21
      return (7.0 / 12.0) * q_func(arg);
    }
  }
  return 0.5;
}

// Models the Viterbi-decoded BER as the uncoded BER at an SNR boosted by the
// coding gain, squared (with a small constant) to approximate the steeper
// coded waterfall: an uncoded 1e-3 maps to ~2e-6.
//
// Coding is never worse than the uncoded channel by construction, so no
// clamp is needed. Let b = raw_ber(snr + gain). The gain is >= 3.25 dB and
// raw_ber is non-increasing in SNR, so b <= raw_ber(snr). Every raw_ber is
// <= 0.5, so the exact 2*b*b is <= b, and rounding cannot lift the product
// past the representable b. Hence 2*b*b <= b <= raw_ber(snr): the former
// min(raw_ber(snr), 2*b*b) always returned 2*b*b, and dropping it halves
// the cost. CodedBerClampNeverBinds checks this bitwise over every
// modulation and code rate.
double coded_ber(Modulation modulation, double code_rate, double snr_db) {
  return coded_ber_at_gain(modulation, coding_gain_db(code_rate), snr_db);
}

double per_stream_snr_db(const McsEntry& mcs_entry, double link_snr_db,
                         const ErrorModelConfig& config) {
  return stream_snr_db(link_snr_db, mcs_entry.streams,
                       stream_split_db(mcs_entry.streams), config);
}

ErrorChain::ErrorChain(const McsEntry& mcs_entry, int payload_bytes,
                       const ErrorModelConfig& config)
    : config_(config),
      modulation_(mcs_entry.modulation),
      streams_(mcs_entry.streams),
      gain_db_(coding_gain_db(mcs_entry.code_rate)),
      split_db_(stream_split_db(mcs_entry.streams)),
      bits_(8.0 * payload_bytes) {}

double ErrorChain::ber(double link_snr_db) const {
  return coded_ber_at_gain(modulation_, gain_db_,
                           stream_snr_db(link_snr_db, streams_, split_db_, config_));
}

double ErrorChain::per(double ber) const {
  // 1 - (1-ber)^bits, computed in log space for numerical stability.
  const double log_ok = bits_ * std::log1p(-std::min(ber, 1.0 - 1e-12));
  return std::clamp(1.0 - std::exp(log_ok), 0.0, 1.0);
}

double per_from_snr(const McsEntry& mcs_entry, double snr_db, int payload_bytes,
                    const ErrorModelConfig& config) {
  const ErrorChain chain(mcs_entry, payload_bytes, config);
  return chain.per(chain.ber(snr_db));
}

CsiPassSums csi_pass(const cplx* a, const cplx* b, std::size_t n_pairs,
                     std::size_t n_sc, double* pow_sc) {
#if defined(__x86_64__)
  if (simd::use_avx2fma())
    return avx2_tier::csi_pass(a, b, n_pairs, n_sc, pow_sc);
#endif
  return scalar_tier::csi_pass(a, b, n_pairs, n_sc, pow_sc);
}

double effective_snr_db_from_powers(double wideband_snr_db, double mean_pow,
                                    std::size_t n_pairs, double* pow_sc,
                                    std::size_t n_sc) {
  const double wideband_lin = db_to_linear(wideband_snr_db);
  const double pairs = static_cast<double>(n_pairs);
  capacity_args(pow_sc, n_sc, pairs, wideband_lin, mean_pow);
  // The log2 calls and their sum stay scalar, so libm's bits stay.
  double cap_sum = 0.0;
  for (std::size_t sc = 0; sc < n_sc; ++sc) cap_sum += std::log2(pow_sc[sc]);
  const double mean_cap = cap_sum / static_cast<double>(n_sc);
  return linear_to_db(std::pow(2.0, mean_cap) - 1.0);
}

double effective_snr_db(const CsiMatrix& csi, double wideband_snr_db) {
  if (csi.empty()) return wideband_snr_db;
  // Per-subcarrier channel power relative to the wideband mean, mapped through
  // Shannon capacity per subcarrier and inverted: the pass with b = a, whose
  // b sums go unused. The scratch holds the widest shape built here (242
  // subcarriers, a 20 MHz HE channel) without allocating.
  const cplx* h = csi.raw().data();
  const std::size_t n_pairs = csi.n_tx() * csi.n_rx();
  const std::size_t n_sc = csi.n_subcarriers();
  InlineVec<double, kInlineSubcarrierScratch> pow_sc(n_sc, 0.0);
  const double mean_pow = csi_pass(h, h, n_pairs, n_sc, pow_sc.data()).na /
                          static_cast<double>(csi.raw().size());
  if (mean_pow <= 0.0) return wideband_snr_db;
  return effective_snr_db_from_powers(wideband_snr_db, mean_pow, n_pairs,
                                      pow_sc.data(), n_sc);
}

double aged_snr_db(double snr_db, double decorrelation) {
  return aged_snr_db_from_inverse(1.0 / db_to_linear(snr_db), decorrelation);
}

double aged_snr_db_from_inverse(double inv_snr, double decorrelation) {
  const double d = std::clamp(decorrelation, 0.0, 1.0 - 1e-9);
  return linear_to_db((1.0 - d) / (inv_snr + d));
}

double per_with_aging(const McsEntry& mcs_entry, double snr_db, int payload_bytes,
                      double decorrelation, const ErrorModelConfig& config) {
  return per_from_snr(mcs_entry, aged_snr_db(snr_db, decorrelation),
                      payload_bytes, config);
}

double expected_throughput_mbps(const McsEntry& mcs_entry, double link_snr_db,
                                int payload_bytes, const ErrorModelConfig& config) {
  const double per = per_from_snr(mcs_entry, link_snr_db, payload_bytes, config);
  return mcs_entry.rate_mbps * (1.0 - per);
}

int best_mcs(double link_snr_db, int payload_bytes, int max_streams,
             const ErrorModelConfig& config) {
  int best = 0;
  double best_tput = -1.0;
  for (const auto& entry : mcs_table()) {
    if (entry.streams > max_streams) continue;
    const double tput =
        expected_throughput_mbps(entry, link_snr_db, payload_bytes, config);
    if (tput > best_tput) {
      best_tput = tput;
      best = entry.index;
    }
  }
  return best;
}

}  // namespace mobiwlan
