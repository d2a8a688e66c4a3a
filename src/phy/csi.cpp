#include "phy/csi.hpp"

namespace mobiwlan {

CsiMatrix::CsiMatrix(std::size_t n_tx, std::size_t n_rx, std::size_t n_subcarriers)
    : n_tx_(n_tx), n_rx_(n_rx), n_sc_(n_subcarriers), data_(n_tx * n_rx * n_subcarriers) {}

void CsiMatrix::resize(std::size_t n_tx, std::size_t n_rx,
                       std::size_t n_subcarriers) {
  n_tx_ = n_tx;
  n_rx_ = n_rx;
  n_sc_ = n_subcarriers;
  data_.assign(n_tx * n_rx * n_subcarriers, cplx{});
}

void CsiMatrix::resize_for_overwrite(std::size_t n_tx, std::size_t n_rx,
                                     std::size_t n_subcarriers) {
  n_tx_ = n_tx;
  n_rx_ = n_rx;
  n_sc_ = n_subcarriers;
  data_.resize(n_tx * n_rx * n_subcarriers);
}

std::vector<double> CsiMatrix::magnitudes(std::size_t tx, std::size_t rx) const {
  std::vector<double> out;
  magnitudes_into(tx, rx, out);
  return out;
}

void CsiMatrix::magnitudes_into(std::size_t tx, std::size_t rx,
                                std::vector<double>& out) const {
  out.resize(n_sc_);
  for (std::size_t sc = 0; sc < n_sc_; ++sc) out[sc] = std::abs(at(tx, rx, sc));
}

double CsiMatrix::mean_power() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& v : data_) sum += std::norm(v);
  return sum / static_cast<double>(data_.size());
}

CMatrix CsiMatrix::subcarrier_matrix(std::size_t sc) const {
  CMatrix h(n_rx_, n_tx_);
  for (std::size_t tx = 0; tx < n_tx_; ++tx)
    for (std::size_t rx = 0; rx < n_rx_; ++rx) h(rx, tx) = at(tx, rx, sc);
  return h;
}

std::vector<cplx> CsiMatrix::subcarrier_gains(std::size_t sc) const {
  std::vector<cplx> out;
  out.reserve(n_tx_ * n_rx_);
  for (std::size_t tx = 0; tx < n_tx_; ++tx)
    for (std::size_t rx = 0; rx < n_rx_; ++rx) out.push_back(at(tx, rx, sc));
  return out;
}

}  // namespace mobiwlan
