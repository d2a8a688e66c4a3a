// csi.hpp — Channel State Information as exported by the AP firmware.
//
// The Atheros AR9390 exports, for each received packet, a matrix of complex
// channel gains: one per (transmit antenna, receive antenna, OFDM subcarrier)
// triple. On a 20 MHz 802.11n channel that is 52 data subcarriers (§2.3 of
// the paper). CsiMatrix is the in-memory form of that export; both the
// channel simulator (producer) and the mobility classifier / beamformers
// (consumers) speak this type.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "util/matrix.hpp"

namespace mobiwlan {

/// Number of data subcarriers the chipset reports on a 20 MHz channel.
inline constexpr std::size_t kDefaultSubcarriers = 52;

/// Per-packet CSI export: complex gain for every TX antenna x RX antenna x
/// subcarrier. Row-major layout: index = (tx * n_rx + rx) * n_sc + sc.
class CsiMatrix {
 public:
  CsiMatrix() = default;
  CsiMatrix(std::size_t n_tx, std::size_t n_rx, std::size_t n_subcarriers);

  /// Re-dimensions the matrix and zero-fills it, reusing the existing
  /// storage when it is large enough (no allocation in steady-state loops
  /// that recycle one matrix).
  void resize(std::size_t n_tx, std::size_t n_rx, std::size_t n_subcarriers);

  /// Re-dimensions without the zero-fill — for producers that overwrite
  /// every entry (the batched synthesis kernel stores the accumulated CSI
  /// directly). Entries are unspecified until written.
  void resize_for_overwrite(std::size_t n_tx, std::size_t n_rx,
                            std::size_t n_subcarriers);

  std::size_t n_tx() const { return n_tx_; }
  std::size_t n_rx() const { return n_rx_; }
  std::size_t n_subcarriers() const { return n_sc_; }
  bool empty() const { return data_.empty(); }

  cplx& at(std::size_t tx, std::size_t rx, std::size_t sc) {
    return data_[(tx * n_rx_ + rx) * n_sc_ + sc];
  }
  const cplx& at(std::size_t tx, std::size_t rx, std::size_t sc) const {
    return data_[(tx * n_rx_ + rx) * n_sc_ + sc];
  }

  /// Channel gain magnitudes for one antenna pair across subcarriers.
  std::vector<double> magnitudes(std::size_t tx, std::size_t rx) const;

  /// Same, into a reusable buffer (resized to n_subcarriers): allocation-free
  /// in steady state. The scratch-buffer form the per-packet similarity
  /// pipeline uses.
  void magnitudes_into(std::size_t tx, std::size_t rx,
                       std::vector<double>& out) const;

  /// Mean |H|^2 over all entries — the wideband channel power, i.e. what RSSI
  /// aggregates over (up to the noise floor and quantization).
  double mean_power() const;

  /// The n_rx x n_tx channel matrix H for a single subcarrier, in the
  /// convention y = H x (rows = receive antennas). Used by the precoders.
  CMatrix subcarrier_matrix(std::size_t sc) const;

  /// Per-antenna-pair complex gains for one subcarrier, flattened tx-major.
  std::vector<cplx> subcarrier_gains(std::size_t sc) const;

  const std::vector<cplx>& raw() const { return data_; }
  std::vector<cplx>& raw() { return data_; }

 private:
  std::size_t n_tx_ = 0;
  std::size_t n_rx_ = 0;
  std::size_t n_sc_ = 0;
  std::vector<cplx> data_;
};

}  // namespace mobiwlan
