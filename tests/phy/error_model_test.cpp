// Tests for the SNR -> BER -> PER error model and the rate oracle.
#include "phy/error_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace mobiwlan {
namespace {

TEST(BerTest, RawBerDecreasesWithSnr) {
  for (auto mod : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                   Modulation::kQam64}) {
    double prev = 1.0;
    for (double snr = -5.0; snr <= 35.0; snr += 2.0) {
      const double b = raw_ber(mod, snr);
      EXPECT_LE(b, prev + 1e-15);
      EXPECT_GE(b, 0.0);
      EXPECT_LE(b, 0.5);
      prev = b;
    }
  }
}

TEST(BerTest, DenserConstellationsWorseAtEqualSnr) {
  for (double snr = 5.0; snr <= 25.0; snr += 5.0) {
    EXPECT_LE(raw_ber(Modulation::kBpsk, snr), raw_ber(Modulation::kQpsk, snr) + 1e-15);
    EXPECT_LT(raw_ber(Modulation::kQpsk, snr), raw_ber(Modulation::kQam16, snr));
    EXPECT_LT(raw_ber(Modulation::kQam16, snr), raw_ber(Modulation::kQam64, snr));
  }
}

TEST(BerTest, CodedBetterThanUncoded) {
  for (double snr = 2.0; snr <= 25.0; snr += 3.0) {
    EXPECT_LE(coded_ber(Modulation::kQpsk, 0.5, snr), raw_ber(Modulation::kQpsk, snr));
  }
}

TEST(BerTest, CodedBerClampNeverBinds) {
  // coded_ber once returned min(raw_ber(snr), 2*b*b) with
  // b = raw_ber(snr + gain); it now returns 2*b*b (proof at its
  // definition). Sweep every modulation x code rate densely, far past both
  // saturation ends, and demand the two agree bit for bit.
  struct Code {
    double rate;
    double gain_db;  // restated from error_model.cpp
  };
  const Code codes[] = {{0.5, 5.5}, {2.0 / 3.0, 4.5}, {0.75, 4.0},
                        {5.0 / 6.0, 3.25}};
  std::vector<double> snrs;
  for (int k = -40000; k <= 40000; ++k) snrs.push_back(0.01 * k);
  for (double v : {-1e4, 1e4, -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()})
    snrs.push_back(v);
  long mismatches = 0;
  std::string first;
  for (auto mod : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                   Modulation::kQam64}) {
    for (const Code& code : codes) {
      for (double snr : snrs) {
        const double b = raw_ber(mod, snr + code.gain_db);
        const double clamped = std::min(raw_ber(mod, snr), 2.0 * b * b);
        const double coded = coded_ber(mod, code.rate, snr);
        if (std::bit_cast<std::uint64_t>(coded) ==
            std::bit_cast<std::uint64_t>(clamped))
          continue;
        if (mismatches++ == 0)
          first = std::string(to_string(mod)) +
                  " rate " + std::to_string(code.rate) + " snr " +
                  std::to_string(snr);
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

TEST(BerTest, StrongerCodeBetter) {
  for (double snr = 5.0; snr <= 20.0; snr += 5.0) {
    EXPECT_LE(coded_ber(Modulation::kQam16, 0.5, snr),
              coded_ber(Modulation::kQam16, 0.75, snr) + 1e-15);
  }
}

TEST(PerTest, BoundsAndMonotonicityInSnr) {
  const McsEntry& e = mcs(4);
  double prev = 1.0;
  for (double snr = 0.0; snr <= 40.0; snr += 1.0) {
    const double per = per_from_snr(e, snr, 1500);
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(PerTest, HighSnrNearZeroLowSnrNearOne) {
  const McsEntry& e = mcs(7);
  EXPECT_LT(per_from_snr(e, 40.0, 1500), 1e-4);
  EXPECT_GT(per_from_snr(e, 5.0, 1500), 0.99);
}

TEST(PerTest, LongerPacketsWorse) {
  const McsEntry& e = mcs(3);
  for (double snr = 10.0; snr <= 20.0; snr += 2.0) {
    EXPECT_GE(per_from_snr(e, snr, 1500), per_from_snr(e, snr, 200) - 1e-12);
  }
}

TEST(PerTest, HigherMcsWorseAtEqualSnr) {
  // Within single-stream MCS, PER is monotone in rate — the assumption the
  // Atheros RA's cross-rate update relies on (§4.1).
  for (double snr = 8.0; snr <= 30.0; snr += 2.0) {
    for (int i = 1; i <= 7; ++i) {
      EXPECT_GE(per_from_snr(mcs(i), snr, 1500),
                per_from_snr(mcs(i - 1), snr, 1500) - 1e-9)
          << "snr " << snr << " mcs " << i;
    }
  }
}

TEST(PerStreamSnrTest, DualStreamPenalized) {
  const double single = per_stream_snr_db(mcs(4), 25.0);
  const double dual = per_stream_snr_db(mcs(12), 25.0);
  EXPECT_GT(single, dual);
  // 3 dB power split + 3 dB separation penalty by default.
  EXPECT_NEAR(single - dual, 6.0, 0.1);
}

TEST(EffectiveSnrTest, FlatChannelEqualsWideband) {
  CsiMatrix flat(1, 1, 52);
  for (auto& v : flat.raw()) v = cplx(1.0, 0.0);
  EXPECT_NEAR(effective_snr_db(flat, 20.0), 20.0, 1e-9);
}

TEST(EffectiveSnrTest, SelectiveChannelAtOrBelowWideband) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    CsiMatrix h(2, 2, 52);
    for (auto& v : h.raw()) v = rng.complex_gaussian();
    for (double snr = 5.0; snr <= 30.0; snr += 5.0) {
      EXPECT_LE(effective_snr_db(h, snr), snr + 1e-9);
    }
  }
}

TEST(EffectiveSnrTest, EmptyCsiPassesThrough) {
  EXPECT_DOUBLE_EQ(effective_snr_db(CsiMatrix{}, 17.0), 17.0);
}

TEST(AgingTest, FreshMatchesPlainPer) {
  const McsEntry& e = mcs(5);
  EXPECT_NEAR(per_with_aging(e, 20.0, 1500, 0.0), per_from_snr(e, 20.0, 1500), 1e-9);
}

TEST(AgingTest, MonotoneInDecorrelation) {
  const McsEntry& e = mcs(5);
  double prev = 0.0;
  for (double d = 0.0; d <= 1.0; d += 0.05) {
    const double per = per_with_aging(e, 25.0, 1500, d);
    EXPECT_GE(per, prev - 1e-12);
    prev = per;
  }
}

TEST(AgingTest, ErrorFloorDefeatsHighSnr) {
  // With 30% decorrelation the self-interference floor caps SINR near 3.7 dB:
  // 64-QAM fails regardless of how strong the signal is.
  const McsEntry& e = mcs(7);
  EXPECT_GT(per_with_aging(e, 60.0, 1500, 0.3), 0.99);
}

TEST(AgingTest, LowRateSurvivesModerateAging) {
  const McsEntry& e = mcs(0);
  EXPECT_LT(per_with_aging(e, 30.0, 1500, 0.05), 0.05);
}

TEST(BestMcsTest, MonotoneNondecreasingInSnr) {
  int prev = 0;
  for (double snr = 0.0; snr <= 40.0; snr += 0.5) {
    const int best = best_mcs(snr, 1500, 2);
    EXPECT_GE(mcs(best).rate_mbps, mcs(prev).rate_mbps - 1e-9) << "snr " << snr;
    prev = best;
  }
}

TEST(BestMcsTest, HighSnrPicksTop) { EXPECT_EQ(best_mcs(40.0, 1500, 2), 15); }

TEST(BestMcsTest, LowSnrPicksBottom) { EXPECT_EQ(best_mcs(2.0, 1500, 2), 0); }

TEST(BestMcsTest, RespectsStreamBudget) {
  EXPECT_LE(best_mcs(40.0, 1500, 1), 7);
}

TEST(ExpectedThroughputTest, NeverExceedsPhyRate) {
  for (const auto& e : mcs_table()) {
    for (double snr = 0.0; snr <= 40.0; snr += 5.0) {
      const double tput = expected_throughput_mbps(e, snr, 1500);
      EXPECT_GE(tput, 0.0);
      EXPECT_LE(tput, e.rate_mbps + 1e-9);
    }
  }
}

class OracleRegionSweep : public ::testing::TestWithParam<double> {};

TEST_P(OracleRegionSweep, OracleBeatsNeighbours) {
  // The chosen MCS yields at least the throughput of adjacent MCS indices.
  const double snr = GetParam();
  const int best = best_mcs(snr, 1500, 2);
  const double best_tput = expected_throughput_mbps(mcs(best), snr, 1500);
  for (int delta : {-1, 1}) {
    const int other = best + delta;
    if (other < 0 || other > 15) continue;
    EXPECT_GE(best_tput, expected_throughput_mbps(mcs(other), snr, 1500) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SnrPoints, OracleRegionSweep,
                         ::testing::Values(5.0, 10.0, 15.0, 20.0, 25.0, 30.0));

}  // namespace
}  // namespace mobiwlan
