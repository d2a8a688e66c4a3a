// csi_similarity.hpp — Equation (1) of the paper.
//
// The similarity between two CSI samples is the Pearson correlation of their
// per-subcarrier channel gain magnitudes. Static channels score ~1; device
// mobility decorrelates all multipath components and drives it toward 0;
// environmental mobility sits in between because only a few components move.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "phy/csi.hpp"
#include "util/inline_vec.hpp"

namespace mobiwlan {

/// Pearson correlation coefficient of two equal-length gain vectors.
/// Returns 0 when either vector is (numerically) constant.
double pearson_correlation(std::span<const double> a, std::span<const double> b);

/// Reusable magnitude buffers for the scratch overloads below: a caller that
/// keeps one of these across a sliding-window loop (as MobilityClassifier
/// does per packet) computes similarities with zero heap allocation.
struct CsiSimilarityScratch {
  std::vector<double> mag_a;
  std::vector<double> mag_b;
};

/// Eq. (1) for one transmit-receive antenna pair: correlation of channel gain
/// magnitudes across the 52 subcarriers.
double csi_similarity(const CsiMatrix& a, const CsiMatrix& b, std::size_t tx,
                      std::size_t rx);
double csi_similarity(const CsiMatrix& a, const CsiMatrix& b, std::size_t tx,
                      std::size_t rx, CsiSimilarityScratch& scratch);

/// Similarity averaged over all antenna pairs — the value S(csi_t, csi_{t+τ})
/// the classifier thresholds. Requires matching dimensions.
double csi_similarity(const CsiMatrix& a, const CsiMatrix& b);
double csi_similarity(const CsiMatrix& a, const CsiMatrix& b,
                      CsiSimilarityScratch& scratch);

/// Cached magnitude pass of Eq. (1) for one CSI matrix: per-subcarrier gain
/// magnitudes (pair-major planes) and their per-pair means. A consumer that
/// compares a *stream* of consecutive samples — where each sample becomes
/// the next comparison's anchor — computes every magnitude exactly once
/// instead of twice, and never needs to retain the anchor's complex CSI.
/// A 1x1x16 plane (the campus link) lives inside the object.
struct CsiAnchor {
  std::size_t n_pairs = 0;
  std::size_t n_sc = 0;
  InlineVec<double, 16> mag;  ///< [pair][sc], pair index = tx * n_rx + rx
  InlineVec<double, 1> mean;  ///< per-pair magnitude mean
};

/// Fills `anchor` with the magnitude pass for `m` — bit-for-bit the values
/// csi_similarity computes internally for either argument. Allocation-free
/// once `anchor` has reached the matrix dimensions.
void csi_anchor_set(const CsiMatrix& m, CsiAnchor& anchor);

/// Eq. (1) of `b` against a cached anchor, averaged over antenna pairs:
/// bitwise identical to csi_similarity(a, b) when `anchor` was set from a.
/// Also fills `next` with b's magnitude pass, so the caller can make `next`
/// the following comparison's anchor at zero recomputation.
double csi_similarity_anchored(const CsiAnchor& anchor, const CsiMatrix& b,
                               CsiAnchor& next);

}  // namespace mobiwlan
