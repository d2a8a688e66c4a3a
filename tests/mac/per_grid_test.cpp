// Tests for PerGrid, the campus MAC step's loss draw: its decisions must be
// bit for bit those of chance(per_from_snr) per MPDU, on and off the grid,
// PerGrid::shared must keep one grid per key, and concurrent first use of a
// row or a key must be race-free (ci/check.sh runs this binary's
// concurrency cases under ThreadSanitizer).
#include "mac/aggregation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "phy/error_model.hpp"
#include "phy/mcs.hpp"
#include "util/rng.hpp"

namespace mobiwlan {
namespace {

constexpr int kPayload = 1500;

/// The draw PerGrid::losses replaces: one chance(per) per MPDU.
int chance_losses(const McsEntry& e, double snr_db, int n, Rng& rng,
                  int payload = kPayload, const ErrorModelConfig& config = {}) {
  const double per = per_from_snr(e, snr_db, payload, config);
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (rng.chance(per)) ++lost;
  return lost;
}

/// Every SNR DecisionsEqualChanceDraws checks: each grid point, one ulp
/// either side of it, the middle of its cell and a random point in it,
/// then points below and above the grid, the infinities and NaN.
std::vector<double> probe_snrs() {
  std::vector<double> snrs;
  Rng rng(20141022);
  for (int k = 0; k < PerGrid::kPoints; ++k) {
    const double g = PerGrid::grid_db(k);
    snrs.push_back(g);
    snrs.push_back(std::nextafter(g, -INFINITY));
    snrs.push_back(std::nextafter(g, INFINITY));
    if (k + 1 < PerGrid::kPoints) {
      const double step = 1.0 / PerGrid::kPointsPerDb;
      snrs.push_back(g + 0.5 * step);
      snrs.push_back(g + rng.uniform() * step);
    }
  }
  for (const double snr : {-20.5, -25.0, -60.0, -1e6, 60.25, 75.0, 1e6,
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
    snrs.push_back(snr);
  return snrs;
}

TEST(PerGridTest, GridPointsArePerFromSnr) {
  const PerGrid grid(kPayload);
  EXPECT_EQ(grid.rows_built(), 0) << "construction built a row";
  for (const McsEntry& e : mcs_table())
    for (int k = 0; k < PerGrid::kPoints; k += 37)
      ASSERT_EQ(grid.per_at(e, k),
                per_from_snr(e, PerGrid::grid_db(k), kPayload))
          << "MCS " << e.index << " point " << k;
  EXPECT_EQ(grid.rows_built(), static_cast<int>(mcs_count()));
  EXPECT_EQ(PerGrid::grid_db(0), PerGrid::kLoDb);
  EXPECT_EQ(PerGrid::grid_db(PerGrid::kPoints - 1), PerGrid::kHiDb);

  // Another payload and error model tabulate their own PERs.
  const ErrorModelConfig harsh{4.0, 2.0};
  const PerGrid other(300, harsh);
  for (const McsEntry& e : mcs_table())
    for (int k = 0; k < PerGrid::kPoints; k += 37)
      ASSERT_EQ(other.per_at(e, k),
                per_from_snr(e, PerGrid::grid_db(k), 300, harsh))
          << "MCS " << e.index << " point " << k;
}

TEST(PerGridTest, RejectsEmptyPayload) {
  EXPECT_THROW(PerGrid(0), std::invalid_argument);
  EXPECT_THROW(PerGrid(-1500), std::invalid_argument);
}

TEST(PerGridTest, DecisionsEqualChanceDraws) {
  // The loss count must equal the chance(per_from_snr) loop's, and leave
  // the generator where that loop does.
  const PerGrid grid(kPayload);
  const std::vector<double> snrs = probe_snrs();
  Rng seeds(20141104);
  long cases = 0, mismatches = 0;
  std::string first;
  for (const McsEntry& e : mcs_table()) {
    for (const double snr : snrs) {
      for (const int n : {1, 4, 16, 64}) {
        for (int s = 0; s < 3; ++s) {
          Rng rng(seeds.next_u64());
          Rng ref = rng;
          const int want = chance_losses(e, snr, n, ref);
          const int got = grid.losses(e, snr, n, rng);
          ++cases;
          if ((got != want || rng.next_u64() != ref.next_u64()) &&
              mismatches++ == 0)
            first = "MCS " + std::to_string(e.index) + " snr " +
                    std::to_string(snr) + " n " + std::to_string(n) +
                    ": got " + std::to_string(got) + ", want " +
                    std::to_string(want);
        }
      }
    }
  }
  EXPECT_GT(cases, 0);
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

TEST(PerGridTest, PerWithinCellBracket) {
  // The bracket rule rests on per(g_k+1) <= per(snr) <= per(g_k) for snr in
  // [g_k, g_k+1], up to rounding: at 1/4096 dB over the grid and a 1 dB
  // skirt either side of it, the price must stay within 1/1000 of the
  // margin outside its cell's bracket ([per(g_0), 1] below the grid,
  // [0, per(g_last)] above it).
  const PerGrid grid(kPayload);
  constexpr int kSub = 4096;
  constexpr int kSkirt = kSub;  // 1 dB
  const int last = PerGrid::kPoints - 1;
  const int steps = (PerGrid::kPoints - 1) * (kSub / PerGrid::kPointsPerDb);
  long points = 0, violations = 0;
  double worst = 0.0;
  std::string where = "none";
  for (const McsEntry& e : mcs_table()) {
    for (int i = -kSkirt; i <= steps + kSkirt; ++i) {
      const double snr = PerGrid::kLoDb + static_cast<double>(i) / kSub;
      double floor_per = 0.0, ceil_per = 1.0;
      if (i < 0) {
        floor_per = grid.per_at(e, 0);
      } else if (i >= steps) {
        ceil_per = grid.per_at(e, last);
      } else {
        const int k = i / (kSub / PerGrid::kPointsPerDb);
        floor_per = grid.per_at(e, k + 1);
        ceil_per = grid.per_at(e, k);
      }
      const double p = per_from_snr(e, snr, kPayload);
      const double below =
          (floor_per - p) / ampdu_bracket_margin(floor_per);
      const double above = (p - ceil_per) / ampdu_bracket_margin(ceil_per);
      const double excess = std::max(below, above);
      ++points;
      if (!(excess <= 1e-3)) ++violations;
      if (!(excess <= worst)) {
        worst = excess;
        where = "MCS " + std::to_string(e.index) + " snr " +
                std::to_string(snr);
      }
    }
  }
  EXPECT_GT(points, 5'000'000);
  EXPECT_EQ(violations, 0) << "worst excess " << worst << " at " << where;
}

TEST(PerGridTest, SharedGridPerKey) {
  // One grid per (payload, error model): an equal key returns the very same
  // object, with its rows, and any other key a distinct grid of its own.
  const ErrorModelConfig harsh{4.0, 2.0};
  const PerGrid& a = PerGrid::shared(kPayload, {});
  EXPECT_EQ(&PerGrid::shared(kPayload, {}), &a);
  EXPECT_EQ(&PerGrid::shared(kPayload, ErrorModelConfig{3.0, 1.5}), &a);
  EXPECT_EQ(a.payload_bytes(), kPayload);
  (void)a.per_at(mcs(3), 0);
  EXPECT_GE(PerGrid::shared(kPayload, {}).rows_built(), 1);

  const PerGrid& short_payload = PerGrid::shared(300, {});
  const PerGrid& other_model = PerGrid::shared(kPayload, harsh);
  const PerGrid& other_loss = PerGrid::shared(kPayload, {3.0, 2.0});
  EXPECT_NE(&short_payload, &a);
  EXPECT_NE(&other_model, &a);
  EXPECT_NE(&other_loss, &a);
  EXPECT_NE(&other_loss, &other_model);
  EXPECT_EQ(&PerGrid::shared(kPayload, harsh), &other_model);
  EXPECT_EQ(short_payload.payload_bytes(), 300);
  EXPECT_EQ(other_model.config().stream_penalty_db, 4.0);
  EXPECT_EQ(other_model.config().implementation_loss_db, 2.0);
  EXPECT_EQ(other_model.per_at(mcs(9), 700),
            per_from_snr(mcs(9), PerGrid::grid_db(700), kPayload, harsh));
  EXPECT_THROW(PerGrid::shared(0, {}), std::invalid_argument);
}

TEST(PerGridTest, SharedLookupConcurrentFirstUse) {
  // Four threads make the first lookup of one common key and of one key
  // each at once, then build rows of both; the common key must give every
  // thread the same grid, and every decision must equal the exact path's.
  // The payloads are used by no other test of this binary.
  constexpr int kThreads = 4;
  constexpr int kCommon = 1401;
  std::atomic<int> ready{0};
  std::vector<const PerGrid*> common(kThreads), own(kThreads);
  std::vector<long> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Rng(20141202).stream(static_cast<std::uint64_t>(t)));
      const int own_payload = kCommon + 1 + t;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      common[t] = &PerGrid::shared(kCommon, {});
      own[t] = &PerGrid::shared(own_payload, {});
      for (int i = 0; i < 500; ++i) {
        const McsEntry& e = mcs(8 + i % 8);
        const double snr = 5.0 + 30.0 * rng.uniform();
        for (const PerGrid* grid : {common[t], own[t]}) {
          Rng draw(rng.next_u64());
          Rng ref = draw;
          if (grid->losses(e, snr, 16, draw) !=
              chance_losses(e, snr, 16, ref, grid->payload_bytes()))
            ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(common[t], common[0]) << "thread " << t;
    EXPECT_EQ(own[t]->payload_bytes(), kCommon + 1 + t);
    for (int u = 0; u < t; ++u) EXPECT_NE(own[t], own[u]);
  }
  EXPECT_EQ(common[0]->rows_built(), 8);
}

TEST(PerGridTest, ConcurrentFirstUseIsRaceFree) {
  // Four threads make the first use of one cold row at once; one builds it
  // while the others wait, and every thread's decisions equal the exact
  // path's.
  const PerGrid grid(kPayload);
  const McsEntry& e = mcs(12);
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<long> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Rng(20141201).stream(static_cast<std::uint64_t>(t)));
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < 2000; ++i) {
        const double snr = 5.0 + 30.0 * rng.uniform();
        Rng draw(rng.next_u64());
        Rng ref = draw;
        const int got = grid.losses(e, snr, 16, draw);
        if (got != chance_losses(e, snr, 16, ref)) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_EQ(grid.rows_built(), 1);
}

}  // namespace
}  // namespace mobiwlan
