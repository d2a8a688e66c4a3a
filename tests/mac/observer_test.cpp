// Tests for MobilityObserver, the CSI/ToF watching every protocol loop
// shares: cadence catch-up, the absence rule, serving vs neighbour routing,
// reassociation, the §3.1 steering pick, and a steady state that makes no
// heap allocation. And for FrameChannel, the per-frame channel read: its
// one-pass measure() against the two sweeps it replaced, bit for bit at
// every SIMD tier, and an allocation-free replay read.
#include "mac/observer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "chan/scenario.hpp"
#include "net/deployment_source.hpp"
#include "phy/error_model.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace mobiwlan {
namespace {

/// Scripted three-unit source. CSI is fresh noise on every read (so the
/// classifier sees device mobility); unit u's ToF ramps at tof_slope[u]
/// cycles/s; scan RSSI is scan[u] (NaN = no reading). Every CSI and ToF
/// read is logged as (unit, t), served or not.
class ScriptedSource : public trace::ObservableSource {
 public:
  struct Read {
    std::uint32_t unit;
    double t;
  };

  std::size_t n_units() const override { return 3; }
  bool has(trace::StreamKind) const override { return true; }
  bool csi(std::uint32_t u, double t, CsiMatrix& out) override {
    csi_reads.push_back({u, t});
    if (!csi_present) return false;
    out = CsiMatrix(1, 2, 30);
    for (auto& v : out.raw())
      v = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
    return true;
  }
  bool csi_feedback(std::uint32_t, double, CsiMatrix&) override {
    return false;
  }
  bool csi_true(std::uint32_t, double, CsiMatrix&) override { return false; }
  std::optional<double> rssi_dbm(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double) override {
    if (scan[u] != scan[u]) return std::nullopt;
    return scan[u];
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    tof_reads.push_back({u, t});
    if (!tof_present) return std::nullopt;
    return 500.0 + tof_slope[u] * t;
  }
  std::optional<double> snr_db(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> true_distance(std::uint32_t, double) override {
    return std::nullopt;
  }

  bool csi_present = true;
  bool tof_present = true;
  double tof_slope[3] = {2.0, -2.0, -2.0};  // 0 recedes, 1 and 2 approach
  double scan[3] = {-60.0, -61.0, -61.0};
  std::vector<Read> csi_reads;
  std::vector<Read> tof_reads;
  Rng rng{7};
};

MobilityClassifier::Config exact_cadences() {
  MobilityClassifier::Config cfg;
  cfg.csi_period_s = 0.25;   // binary-exact periods: the due instants are
  cfg.tof_period_s = 0.125;  // exact multiples, so the counts are too
  return cfg;
}

TEST(MobilityObserverTest, CatchesUpOnEveryDueReading) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 1.0);
  // CSI of the serving unit at 0, 0.25, .., 1.0; ToF of every unit at each
  // of 0, 0.125, .., 1.0, in unit order.
  ASSERT_EQ(src.csi_reads.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(src.csi_reads[i].unit, 0u);
    EXPECT_EQ(src.csi_reads[i].t, 0.25 * static_cast<double>(i));
  }
  ASSERT_EQ(src.tof_reads.size(), 27u);
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(src.tof_reads[i].unit, i % 3);
    EXPECT_EQ(src.tof_reads[i].t, 0.125 * static_cast<double>(i / 3));
  }
  // Nothing new is due at the same instant; a later one reads only what
  // has come due since.
  obs.advance(src, 0, 1.0);
  EXPECT_EQ(src.csi_reads.size(), 5u);
  EXPECT_EQ(src.tof_reads.size(), 27u);
  obs.advance(src, 0, 1.3);
  EXPECT_EQ(src.csi_reads.size(), 6u);
  EXPECT_EQ(src.tof_reads.size(), 33u);
  EXPECT_EQ(src.tof_reads.back().t, 1.25);
}

TEST(MobilityObserverTest, RoutesServingToClassifierAndNeighboursToTrackers) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Fresh-noise CSI reads as device mobility, and the serving unit's rising
  // ToF makes the classifier call the client walking away.
  ASSERT_TRUE(obs.classifier().similarity());
  EXPECT_EQ(obs.classifier().decision(12.0), MobilityMode::kMacroAway);
  // Both approaching neighbours qualify at -61 dB (>= -60 - 1); the last
  // of equal readings wins. The serving unit is never a candidate.
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
  src.scan[1] = -55.0;
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 1u);
}

TEST(MobilityObserverTest, ServingUnitFeedsNoHeadingTracker) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 1, 12.0);  // unit 1 serves the whole run
  // Its tracker never saw a reading, so from unit 0's side only unit 2 is
  // heading closer, whatever unit 1's signal.
  src.scan[1] = -40.0;
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
  // And unit 1's falling ToF went to the classifier instead.
  EXPECT_EQ(obs.classifier().decision(12.0), MobilityMode::kMacroToward);
}

TEST(MobilityObserverTest, AbsentReadsReachNeitherClassifierNorTrackers) {
  ScriptedSource src;
  src.csi_present = false;
  src.tof_present = false;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Every due reading was asked for once and skipped, not retried.
  EXPECT_EQ(src.csi_reads.size(), 49u);
  EXPECT_EQ(src.tof_reads.size(), 3u * 97u);
  EXPECT_FALSE(obs.classifier().similarity());
  EXPECT_FALSE(obs.classifier().decision(12.0));
  EXPECT_FALSE(obs.steer_target(src, 0, -60.0, 12.0));
}

TEST(MobilityObserverTest, ReassociateRestartsClassifierKeepsTrackers) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  ASSERT_TRUE(obs.classifier().decision(12.0));
  obs.reassociate();
  EXPECT_FALSE(obs.classifier().similarity());
  EXPECT_FALSE(obs.classifier().decision(12.0));
  EXPECT_EQ(obs.steer_target(src, 0, -60.0, 12.0), 2u);
}

TEST(MobilityObserverTest, SteerTargetNoCandidate) {
  ScriptedSource src;
  MobilityObserver obs(exact_cadences(), 3);
  obs.advance(src, 0, 12.0);
  // Both approaching neighbours are more than 1 dB below the serving AP.
  EXPECT_FALSE(obs.steer_target(src, 0, -59.0, 12.0));
  // A neighbour without a scan reading is no candidate either.
  src.scan[1] = src.scan[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(obs.steer_target(src, 0, -70.0, 12.0));
  // A single-unit observer has no neighbours to steer to.
  MobilityObserver single(exact_cadences(), 1);
  single.advance(src, 0, 12.0);
  EXPECT_FALSE(single.steer_target(src, 0, -70.0, 12.0));
}

TEST(MobilityObserverTest, SteadyStateAdvanceAndScanAreAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  Rng rng(3);
  auto traj = WlanDeployment::corridor_walk(rng);
  WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                      ChannelConfig{}, rng);
  LiveDeploymentSource src(wlan);
  MobilityObserver obs(MobilityClassifier::Config{}, src.n_units());
  double t = 0.0;
  auto step = [&] {
    obs.advance(src, 2, t);
    (void)src.strongest_unit(t);
    t += 0.05;
  };
  for (int i = 0; i < 200; ++i) step();  // 10 s: every tracker window full
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) step();
  EXPECT_EQ(alloc_count() - before, 0u);
}

// The two sweeps FrameChannel::measure fuses, kept as they were written
// before it: effective_snr_db's per-subcarrier loop over mean_power(), and
// the normalized complex correlation of two snapshots.
double two_sweep_effective_snr_db(const CsiMatrix& csi,
                                  double wideband_snr_db) {
  if (csi.empty()) return wideband_snr_db;
  const double mean_pow = csi.mean_power();
  if (mean_pow <= 0.0) return wideband_snr_db;
  const double wideband_lin = db_to_linear(wideband_snr_db);
  double cap_sum = 0.0;
  const std::size_t n_sc = csi.n_subcarriers();
  const std::size_t n_pairs = csi.n_tx() * csi.n_rx();
  for (std::size_t sc = 0; sc < n_sc; ++sc) {
    double pow_sc = 0.0;
    for (std::size_t tx = 0; tx < csi.n_tx(); ++tx)
      for (std::size_t rx = 0; rx < csi.n_rx(); ++rx)
        pow_sc += std::norm(csi.at(tx, rx, sc));
    pow_sc /= static_cast<double>(n_pairs);
    const double snr_sc = wideband_lin * pow_sc / mean_pow;
    cap_sum += std::log2(1.0 + snr_sc);
  }
  const double mean_cap = cap_sum / static_cast<double>(n_sc);
  const double eff_lin = std::pow(2.0, mean_cap) - 1.0;
  return linear_to_db(eff_lin);
}

double two_sweep_correlation(const CsiMatrix& a, const CsiMatrix& b) {
  const auto& ra = a.raw();
  const auto& rb = b.raw();
  if (ra.size() != rb.size() || ra.empty()) return 0.0;
  cplx dot{};
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    dot += std::conj(ra[i]) * rb[i];
    na += std::norm(ra[i]);
    nb += std::norm(rb[i]);
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return std::abs(dot) / std::sqrt(na * nb);
}

/// Equal bit patterns; any two NaNs count as equal.
::testing::AssertionResult same_bits(double got, double want) {
  if ((std::isnan(got) && std::isnan(want)) ||
      std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got << " (0x" << std::hex << std::bit_cast<std::uint64_t>(got)
         << ") != " << want << " (0x" << std::bit_cast<std::uint64_t>(want)
         << ")";
}

/// Measures (start, end) with one FrameChannel, as a frame loop reuses it,
/// at several wideband SNRs, and checks both outputs (and effective_snr_db)
/// against the two sweeps.
void expect_two_sweep_bits(FrameChannel& ch, const CsiMatrix& start,
                           const CsiMatrix& end, const std::string& what) {
  ch.h_start = start;
  ch.h_end = end;
  for (const double snr_db : {-3.0, 0.0, 17.25, 41.0}) {
    ch.measure(snr_db);
    const double eff = two_sweep_effective_snr_db(start, snr_db);
    EXPECT_TRUE(same_bits(ch.eff_snr_db, eff)) << what << " at " << snr_db;
    EXPECT_TRUE(same_bits(effective_snr_db(start, snr_db), eff))
        << what << " at " << snr_db;
    EXPECT_TRUE(
        same_bits(ch.decorr_end, 1.0 - two_sweep_correlation(start, end)))
        << what;
  }
}

CsiMatrix random_csi(std::size_t tx, std::size_t rx, std::size_t sc,
                     Rng& rng) {
  CsiMatrix m(tx, rx, sc);
  for (auto& v : m.raw()) v = rng.complex_gaussian();
  return m;
}

/// random_csi with entry i (data order) scaled by 10^u, u rising evenly
/// from -8 to 4: each term is a sizeable share of the sum so far, so an
/// add out of data order is likely to round differently.
CsiMatrix wide_range_csi(std::size_t tx, std::size_t rx, std::size_t sc,
                         Rng& rng) {
  CsiMatrix m = random_csi(tx, rx, sc, rng);
  auto& raw = m.raw();
  const double step = 12.0 / static_cast<double>(raw.size() - 1);
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] *= std::pow(10.0, -8.0 + step * static_cast<double>(i));
  return m;
}

/// Runs `body` at each forced SIMD tier (scalar, avx2, avx512; clamped to
/// what the host runs), then restores the environment's tier.
template <typename Body>
void at_every_tier(Body body) {
  for (const int tier : {0, 1, 2}) {
    simd::set_forced_tier(tier);
    SCOPED_TRACE(simd::tier_name(simd::active_tier()));
    body();
  }
  simd::set_forced_tier(-1);
}

/// `start` aged by `d`: the end-of-frame snapshot of a channel that kept
/// (1 - d) of its estimate.
CsiMatrix aged(const CsiMatrix& start, double d, Rng& rng) {
  CsiMatrix m = start;
  for (auto& v : m.raw()) v = (1.0 - d) * v + d * rng.complex_gaussian();
  return m;
}

TEST(FrameChannelTest, MeasureEqualsTwoSweepsBitForBit) {
  // Every sub-4 subcarrier tail (n_sc mod 4 = 1, 2, 3) and none, at every
  // tier.
  const std::size_t shapes[][3] = {{1, 1, 16}, {3, 2, 52}, {1, 3, 7},
                                   {2, 2, 242}, {4, 4, 30}, {1, 1, 1},
                                   {2, 1, 2},  {1, 2, 3},   {3, 2, 5}};
  at_every_tier([&] {
    Rng rng(34);
    FrameChannel ch;
    for (const auto& s : shapes) {
      const std::string what = std::to_string(s[0]) + "x" +
                               std::to_string(s[1]) + "x" +
                               std::to_string(s[2]);
      for (int draw = 0; draw < 8; ++draw) {
        const CsiMatrix start = random_csi(s[0], s[1], s[2], rng);
        expect_two_sweep_bits(ch, start, aged(start, 0.01 * draw, rng), what);
        expect_two_sweep_bits(ch, start, random_csi(s[0], s[1], s[2], rng),
                              what + " independent");
      }
    }
    // Entries from ~1e-8 to ~1e4 in magnitude, so that an add of na, nb or
    // dot out of data order is likely to move bits.
    for (int draw = 0; draw < 8; ++draw) {
      const CsiMatrix start = wide_range_csi(3, 2, 52, rng);
      expect_two_sweep_bits(ch, start, wide_range_csi(3, 2, 52, rng),
                            "3x2x52 wide range");
      expect_two_sweep_bits(ch, start, aged(start, 0.01 * (draw + 1), rng),
                            "3x2x52 wide range aged");
    }
  });
}

TEST(FrameChannelTest, MeasureEdgeCasesEqualTwoSweeps) {
  at_every_tier([] {
    Rng rng(35);
    FrameChannel ch;
    const CsiMatrix some = random_csi(3, 2, 52, rng);
    expect_two_sweep_bits(ch, CsiMatrix{}, CsiMatrix{}, "both empty");
    expect_two_sweep_bits(ch, CsiMatrix{}, some, "empty start");
    expect_two_sweep_bits(ch, some, CsiMatrix{}, "empty end");
    expect_two_sweep_bits(ch, CsiMatrix(3, 2, 52), some, "all-zero start");
    expect_two_sweep_bits(ch, some, CsiMatrix(3, 2, 52), "all-zero end");
    // Sizes differ: no correlation, but the start still has its SNR.
    expect_two_sweep_bits(ch, random_csi(1, 1, 8, rng),
                          random_csi(1, 1, 16, rng), "1x1x8 vs 1x1x16");
    expect_two_sweep_bits(ch, some, random_csi(1, 3, 7, rng),
                          "3x2x52 vs 1x3x7");
    // Equal sizes, different shapes: correlated entry by entry.
    expect_two_sweep_bits(ch, random_csi(1, 2, 8, rng),
                          random_csi(2, 1, 8, rng), "1x2x8 vs 2x1x8");
    // The flat channel of the effective-SNR tests, and the spot checks.
    CsiMatrix flat(1, 1, 52);
    for (auto& v : flat.raw()) v = cplx(1.0, 0.0);
    expect_two_sweep_bits(ch, flat, flat, "flat");
    ch.h_start = flat;
    ch.h_end = flat;
    ch.measure(20.0);
    EXPECT_NEAR(ch.eff_snr_db, 20.0, 1e-9);
    EXPECT_NEAR(ch.decorr_end, 0.0, 1e-12);
    ch.h_start = CsiMatrix{};
    ch.measure(17.0);
    EXPECT_EQ(ch.eff_snr_db, 17.0);
    EXPECT_EQ(ch.decorr_end, 1.0);
  });
}

TEST(FrameChannelTest, MeasureNonFiniteEntriesEqualTwoSweeps) {
  // NaN and infinite entries reach both outputs as they did through the
  // two sweeps. measure() multiplies plainly where the sweeps' std::complex
  // product has a C Annex G recovery of a NaN product; that recovery only
  // acts where an input is non-finite or overflows a norm, and the
  // correlation is then NaN either way.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const cplx odd[] = {{kNaN, 0.0}, {0.0, kNaN}, {kInf, 0.0},  {-kInf, 1.0},
                      {1.0, kInf}, {kInf, kInf}, {kNaN, kInf}, {-kInf, kNaN}};
  at_every_tier([&] {
    Rng rng(36);
    FrameChannel ch;
    for (std::size_t k = 0; k < std::size(odd); ++k) {
      const std::string what = "entry " + std::to_string(k);
      const CsiMatrix start = random_csi(3, 2, 52, rng);
      const CsiMatrix end = aged(start, 0.05, rng);
      CsiMatrix bad_start = start;
      bad_start.raw()[17] = odd[k];
      CsiMatrix bad_end = end;
      bad_end.raw()[200] = odd[k];
      expect_two_sweep_bits(ch, bad_start, end, what + " in start");
      expect_two_sweep_bits(ch, start, bad_end, what + " in end");
      expect_two_sweep_bits(ch, bad_start, bad_end, what + " in both");
      CsiMatrix same_spot = end;
      same_spot.raw()[17] = odd[(k + 3) % std::size(odd)];
      expect_two_sweep_bits(ch, bad_start, same_spot, what + " at one index");
    }
  });
}

TEST(FrameChannelTest, SecondReplayReadIsAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  const std::string path = ::testing::TempDir() + "/frame_channel.mwtr";
  constexpr double kAirtime = 4e-3;
  FrameChannel live;
  double live_snr[2] = {};
  double live_decorr[2] = {};
  Rng rng(37);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  {
    trace::LiveChannelSource src(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(src, ChannelConfig{}));
    trace::RecordingSource tee(src, writer);
    for (int k = 0; k < 2; ++k) {
      live.read(tee, 0, 0.5 * k, kAirtime, "frame channel test");
      live_snr[k] = live.eff_snr_db;
      live_decorr[k] = live.decorr_end;
    }
    writer.close();
  }
  trace::TraceSource replay(path);  // strict
  FrameChannel ch;
  ch.read(replay, 0, 0.0, kAirtime, "frame channel test");
  const std::uint64_t before = alloc_count();
  ch.read(replay, 0, 0.5, kAirtime, "frame channel test");
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_TRUE(same_bits(ch.eff_snr_db, live_snr[1]));
  EXPECT_TRUE(same_bits(ch.decorr_end, live_decorr[1]));
  EXPECT_GT(live_decorr[1], 0.0);
  std::remove(path.c_str());
}

TEST(EffectiveSnrScratchTest, AllocationFreeUpToTheInlineScratch) {
  // beamforming_sim calls effective_snr_db on every step. Its per-subcarrier
  // scratch holds kInlineSubcarrierScratch subcarriers; a wider channel
  // costs one allocation per call.
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";
  const std::size_t shapes[][4] = {{3, 2, 52, 0},
                                   {2, 2, 242, 0},
                                   {1, 1, kInlineSubcarrierScratch, 0},
                                   {1, 2, kInlineSubcarrierScratch + 1, 1}};
  Rng rng(41);
  for (const auto& s : shapes) {
    const CsiMatrix csi = random_csi(s[0], s[1], s[2], rng);
    const std::uint64_t before = alloc_count();
    const double eff = effective_snr_db(csi, 17.25);
    EXPECT_EQ(alloc_count() - before, s[3]) << s[2] << " subcarriers";
    EXPECT_TRUE(same_bits(eff, two_sweep_effective_snr_db(csi, 17.25)))
        << s[2] << " subcarriers";
  }
}

}  // namespace
}  // namespace mobiwlan
