// Tests for the ObservableSource hierarchy: TraceSource replay semantics
// (strict skew detection, relaxed hold-then-decay, recorded-absence replay,
// counters, stream gating, lockstep decoding, config validation, rewind),
// RecordingSource tee behaviour, FaultedSource composition over a replayed
// trace, and FaultedSource's absence rule for ToF exports.
#include "trace/trace_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "chan/scenario.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"

namespace mobiwlan::trace {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

/// Two-unit scalar trace: RSSI at a 0.1 s cadence on both units, one
/// recorded absence on unit 0 at t=0.2, ToF on unit 0 only.
std::string write_scalar_trace(const char* name) {
  const std::string path = tmp(name);
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kTof);
  h.n_units = 2;
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  TraceWriter writer(path, h);
  for (int i = 0; i < 5; ++i) {
    const double t = 0.1 * i;
    if (i == 2)
      writer.put_absent(StreamKind::kRssi, 0, t);
    else
      writer.put_scalar(StreamKind::kRssi, 0, t, -50.0 - i);
    writer.put_scalar(StreamKind::kRssi, 1, t, -60.0 - i);
    writer.put_scalar(StreamKind::kTof, 0, t, 400.0 + i);
  }
  writer.close();
  return path;
}

TEST(TraceSourceTest, StrictReplayServesRecordedReads) {
  const std::string path = write_scalar_trace("src_strict.mwtr");
  TraceSource src(path);
  EXPECT_EQ(src.n_units(), 2u);
  EXPECT_TRUE(src.has(StreamKind::kRssi));
  EXPECT_FALSE(src.has(StreamKind::kCsi));
  EXPECT_EQ(src.rssi_dbm(0, 0.0), -50.0);
  EXPECT_EQ(src.rssi_dbm(1, 0.0), -60.0);
  EXPECT_EQ(src.tof_cycles(0, 0.0), 400.0);
  EXPECT_EQ(src.rssi_dbm(0, 0.1), -51.0);
  EXPECT_EQ(src.counters().served, 4u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RecordedAbsenceReplaysAsAbsent) {
  const std::string path = write_scalar_trace("src_absent.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.rssi_dbm(0, 0.0));
  EXPECT_TRUE(src.rssi_dbm(0, 0.1));
  EXPECT_FALSE(src.rssi_dbm(0, 0.2));  // the dropped export, replayed
  EXPECT_EQ(src.rssi_dbm(0, 0.3), -53.0);
  EXPECT_EQ(src.counters().absent, 1u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrictThrowsOnSkippedRecord) {
  const std::string path = write_scalar_trace("src_skip.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.rssi_dbm(0, 0.0));
  try {
    (void)src.rssi_dbm(0, 0.35);  // would silently pass over t=0.1..0.3
    FAIL() << "skipped records accepted in strict mode";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTimestampSkew);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrictThrowsOnUnmatchedQuery) {
  const std::string path = write_scalar_trace("src_unmatched.mwtr");
  TraceSource src(path);
  try {
    (void)src.rssi_dbm(0, 0.05);  // between records: no read at this time
    FAIL() << "unmatched query accepted in strict mode";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTimestampSkew);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RelaxedCountsSkippedAndMissing) {
  const std::string path = write_scalar_trace("src_relaxed.mwtr");
  TraceSource::Config cfg;
  cfg.strict = false;
  TraceSource src(path, cfg);
  EXPECT_EQ(src.rssi_dbm(0, 0.35), std::nullopt);  // no hold configured
  EXPECT_GT(src.counters().skipped, 0u);
  EXPECT_EQ(src.counters().missing, 1u);
  EXPECT_EQ(src.rssi_dbm(0, 0.4), -54.0);  // stream still consumable
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RelaxedHoldServesRecentRecordThenDecays) {
  const std::string path = write_scalar_trace("src_hold.mwtr");
  TraceSource::Config cfg;
  cfg.strict = false;
  cfg.max_age_s = 0.15;
  TraceSource src(path, cfg);
  EXPECT_EQ(src.rssi_dbm(0, 0.1), -51.0);
  // 0.22 matches no record (the t=0.2 read was an absence) but the t=0.1
  // value is younger than max_age_s, so it is held...
  EXPECT_EQ(src.rssi_dbm(0, 0.22), -51.0);
  EXPECT_EQ(src.counters().held, 1u);
  // ...while far past the last record the hold expires: gaps decay, they are
  // never interpolated or extended forever.
  EXPECT_EQ(src.rssi_dbm(0, 2.0), std::nullopt);
  EXPECT_GT(src.counters().missing, 0u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, IgnoreMaskHidesStreamAndRequireRefuses) {
  const std::string path = write_scalar_trace("src_ignore.mwtr");
  TraceSource::Config cfg;
  cfg.ignore_mask = stream_bit(StreamKind::kTof);
  TraceSource src(path, cfg);
  EXPECT_FALSE(src.has(StreamKind::kTof));
  EXPECT_EQ(src.tof_cycles(0, 0.0), std::nullopt);
  try {
    src.require({StreamKind::kRssi, StreamKind::kTof}, "test consumer");
    FAIL() << "require() accepted a hidden stream";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kMissingStream);
  }
  // The un-hidden stream alone passes.
  src.require({StreamKind::kRssi}, "test consumer");
  std::remove(path.c_str());
}

TEST(TraceSourceTest, FeedbackDefaultsToDeliveredWithoutStream) {
  const std::string path = write_scalar_trace("src_fb.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.feedback_delivered(0, 0.0));  // no kFeedbackOk stream
  std::remove(path.c_str());
}

TEST(TraceSourceTest, FeedbackOkStreamReplaysOutcomes) {
  const std::string path = tmp("src_fbok.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kFeedbackOk);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    writer.put_scalar(StreamKind::kFeedbackOk, 0, 0.0, 1.0);
    writer.put_scalar(StreamKind::kFeedbackOk, 0, 0.1, 0.0);
    writer.close();
  }
  TraceSource src(path);
  EXPECT_TRUE(src.feedback_delivered(0, 0.0));
  EXPECT_FALSE(src.feedback_delivered(0, 0.1));
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrongestUnitIsFirstWinsArgmax) {
  const std::string path = tmp("src_argmax.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kScanRssi);
  h.n_units = 3;
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    writer.put_scalar(StreamKind::kScanRssi, 0, 0.0, -70.0);
    writer.put_scalar(StreamKind::kScanRssi, 1, 0.0, -55.0);
    writer.put_scalar(StreamKind::kScanRssi, 2, 0.0, -55.0);  // tie: 1 wins
    writer.close();
  }
  TraceSource src(path);
  EXPECT_EQ(src.strongest_unit(0.0), 1u);
  std::remove(path.c_str());
}

// ---- lockstep decoding -----------------------------------------------------

TEST(TraceSourceTest, DecodesOnlyTheRecordsQueriesNeed) {
  const std::string path = write_scalar_trace("src_lockstep.mwtr");
  TraceSource src(path);
  EXPECT_EQ(src.counters().decoded, 0u);  // opening decodes nothing
  EXPECT_EQ(src.rssi_dbm(0, 0.0), -50.0);
  EXPECT_EQ(src.counters().decoded, 1u);
  // ToF at 0.0 is the third record: the unit-1 RSSI read in between is
  // decoded into its own stream on the way and served from there.
  EXPECT_EQ(src.tof_cycles(0, 0.0), 400.0);
  EXPECT_EQ(src.counters().decoded, 3u);
  EXPECT_EQ(src.rssi_dbm(1, 0.0), -60.0);
  EXPECT_EQ(src.counters().decoded, 3u);
  EXPECT_EQ(src.counters().served, 3u);
  std::remove(path.c_str());
}

/// Reads a whole file into memory.
std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceSourceTest, TruncatedTraceFailsAtTheFirstReadPastTheCut) {
  // RSSI and ToF reads alternate on one clock; 16,000 pairs of 20-byte
  // records span two full 256 KiB chunks and a third, partial one. The file
  // is cut inside the second chunk's payload.
  const std::string path = tmp("src_truncated.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kTof);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  constexpr int kPairs = 16000;
  {
    TraceWriter writer(path, h);
    for (int i = 0; i < kPairs; ++i) {
      writer.put_scalar(StreamKind::kRssi, 0, 0.001 * i, -50.0 - i);
      writer.put_scalar(StreamKind::kTof, 0, 0.001 * i, 400.0 + i);
    }
    writer.close();
  }
  // Records the first chunk holds: the writer flushes at the first record
  // end at or past 256 KiB.
  constexpr int kChunkRecords = (256 * 1024 + 19) / 20;
  static_assert(kChunkRecords % 2 == 0, "the first chunk ends on a pair");
  std::vector<char> bytes = read_bytes(path);
  bytes.resize(48 + 8 + 20 * kChunkRecords + 8 + 1000);
  write_bytes(path, bytes);

  TraceSource src(path);  // strict
  // Every record of the intact first chunk is served, up to its last one:
  // nothing is decoded beyond the record a query needs.
  for (int i = 0; i < kChunkRecords / 2; ++i) {
    const double t = 0.001 * i;
    ASSERT_EQ(src.rssi_dbm(0, t), -50.0 - i) << "i=" << i;
    ASSERT_EQ(src.tof_cycles(0, t), 400.0 + i) << "i=" << i;
  }
  EXPECT_EQ(src.counters().served, static_cast<std::uint64_t>(kChunkRecords));
  EXPECT_EQ(src.counters().decoded, static_cast<std::uint64_t>(kChunkRecords));
  // The first read that needs a record past the cut reports it.
  try {
    (void)src.rssi_dbm(0, 0.001 * (kChunkRecords / 2));
    FAIL() << "read past the cut did not throw";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTruncated);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, CorruptRecordBeyondTheLastReadIsNotReported) {
  // Five RSSI reads; the fourth record's kind byte is garbage. A consumer
  // that stops after three reads never reaches it, so the replay succeeds;
  // the fourth read reports it.
  const std::string path = tmp("src_corrupt_tail.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    for (int i = 0; i < 5; ++i)
      writer.put_scalar(StreamKind::kRssi, 0, 0.1 * i, -50.0 - i);
    writer.close();
  }
  std::vector<char> bytes = read_bytes(path);
  bytes[48 + 8 + 3 * 20] = static_cast<char>(200);  // not a StreamKind
  write_bytes(path, bytes);

  TraceSource src(path);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(src.rssi_dbm(0, 0.1 * i), -50.0 - i);
  try {
    (void)src.rssi_dbm(0, 0.3);
    FAIL() << "corrupt record served";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kCorruptRecord);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RewindReplaysFromTheFirstRecord) {
  const std::string path = write_scalar_trace("src_rewind.mwtr");
  TraceSource src(path);
  auto replay_unit0 = [&] {
    std::vector<std::optional<double>> got;
    for (int i = 0; i < 5; ++i) got.push_back(src.rssi_dbm(0, 0.1 * i));
    return got;
  };
  const auto first = replay_unit0();
  src.rewind();
  EXPECT_EQ(src.counters().served, 0u);
  EXPECT_EQ(src.counters().decoded, 0u);
  EXPECT_EQ(replay_unit0(), first);
  EXPECT_EQ(src.counters().absent, 1u);
  std::remove(path.c_str());
}

// ---- config validation -----------------------------------------------------

// The name fields are std::string, not const char*, so gtest prints their text
// in the listed test name rather than their addresses, which move between runs.
using BadConfigCase = std::tuple<std::string, std::string, double>;

class TraceSourceBadConfig : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(TraceSourceBadConfig, RejectedAtConstruction) {
  const auto& [field, kind, value] = GetParam();
  const std::string path = write_scalar_trace(
      (std::string("src_badcfg_") + field + "_" + kind + ".mwtr").c_str());
  TraceSource::Config cfg;
  cfg.strict = false;
  if (field == "skew_tol_s")
    cfg.skew_tol_s = value;
  else
    cfg.max_age_s = value;
  try {
    TraceSource src(path, cfg);
    FAIL() << field << " = " << value << " accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kBadConfig);
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  // The config is checked before the file is opened.
  try {
    TraceSource src(tmp("src_badcfg_does_not_exist.mwtr"), cfg);
    FAIL() << "bad config with a missing file accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kBadConfig);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Fields, TraceSourceBadConfig,
    ::testing::Values(
        BadConfigCase{"skew_tol_s", "nan",
                      std::numeric_limits<double>::quiet_NaN()},
        BadConfigCase{"skew_tol_s", "inf",
                      std::numeric_limits<double>::infinity()},
        BadConfigCase{"skew_tol_s", "negative", -1e-9},
        BadConfigCase{"max_age_s", "nan",
                      std::numeric_limits<double>::quiet_NaN()},
        BadConfigCase{"max_age_s", "inf",
                      std::numeric_limits<double>::infinity()},
        BadConfigCase{"max_age_s", "negative", -0.05}),
    [](const ::testing::TestParamInfo<BadConfigCase>& param_info) {
      return std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
    });

TEST(TraceSourceTest, ZeroTolerancesAreValid) {
  const std::string path = write_scalar_trace("src_zero_tol.mwtr");
  TraceSource::Config cfg;
  cfg.skew_tol_s = 0.0;
  cfg.max_age_s = 0.0;
  TraceSource src(path, cfg);
  EXPECT_EQ(src.rssi_dbm(0, 0.0), -50.0);
  std::remove(path.c_str());
}

// ---- RecordingSource -------------------------------------------------------

TEST(RecordingSourceTest, TeeRecordsEveryReadIncludingAbsences) {
  Rng rng(7);
  Scenario s = make_scenario(MobilityClass::kMicro, rng);
  const std::string path = tmp("rec_tee.mwtr");
  FaultPlan plan;
  plan.rssi.drop_prob = 0.5;
  plan.seed = 99;
  {
    LiveChannelSource live(*s.channel);
    FaultedSource faulted(live, plan);
    TraceWriter writer(path,
                       RecordingSource::header_for(faulted, ChannelConfig{}));
    RecordingSource rec(faulted, writer);
    std::size_t present = 0;
    for (int i = 0; i < 50; ++i)
      if (rec.rssi_dbm(0, 0.01 * i)) ++present;
    // 50% drops: some reads must have gone each way.
    EXPECT_GT(present, 0u);
    EXPECT_LT(present, 50u);
    writer.close();
    EXPECT_EQ(writer.records_written(), 50u);  // absences recorded too
  }
  // The replay reproduces the same present/absent pattern and values.
  Rng rng2(7);
  Scenario s2 = make_scenario(MobilityClass::kMicro, rng2);
  LiveChannelSource live2(*s2.channel);
  FaultedSource faulted2(live2, plan);
  TraceSource replay(path);
  for (int i = 0; i < 50; ++i) {
    const double t = 0.01 * i;
    EXPECT_EQ(replay.rssi_dbm(0, t), faulted2.rssi_dbm(0, t)) << "i=" << i;
  }
  std::remove(path.c_str());
}

TEST(RecordingSourceTest, HeaderMaskMirrorsInnerSource) {
  Rng rng(3);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  LiveChannelSource live(*s.channel);
  const TraceHeader h = RecordingSource::header_for(live, ChannelConfig{});
  EXPECT_EQ(h.n_units, 1u);
  for (std::size_t k = 0; k < kNumStreamKinds; ++k) {
    const StreamKind kind = static_cast<StreamKind>(k);
    EXPECT_EQ(h.has(kind), live.has(kind)) << to_string(kind);
  }
  const ChannelConfig cfg;
  EXPECT_EQ(h.n_tx, cfg.n_tx);
  EXPECT_EQ(h.n_rx, cfg.n_rx);
  EXPECT_EQ(h.n_sc, cfg.n_subcarriers);
}

// ---- FaultedSource over a replayed trace -----------------------------------

TEST(FaultedSourceTest, CompositionOverReplayIsDeterministic) {
  const std::string path = tmp("fault_compose.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    for (int i = 0; i < 100; ++i)
      writer.put_scalar(StreamKind::kRssi, 0, 0.01 * i, -50.0 - 0.1 * i);
    writer.close();
  }
  FaultPlan plan;
  plan.rssi.drop_prob = 0.3;
  plan.seed = 42;
  auto run = [&] {
    TraceSource::Config cfg;
    cfg.strict = false;  // replay-time drops skip recorded reads
    TraceSource replay(path, cfg);
    FaultedSource faulted(replay, plan);
    std::vector<std::optional<double>> out;
    for (int i = 0; i < 100; ++i) out.push_back(faulted.rssi_dbm(0, 0.01 * i));
    return out;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  std::size_t dropped = 0;
  for (const auto& v : a)
    if (!v) ++dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 100u);
  std::remove(path.c_str());
}

/// Three-unit source that serves only ToF: unit u reads 100 + u + t, and
/// every read is counted with the instant it was taken at.
class CountingTofSource : public ObservableSource {
 public:
  std::size_t n_units() const override { return 3; }
  bool has(StreamKind) const override { return true; }
  bool csi(std::uint32_t, double, CsiMatrix&) override { return false; }
  bool csi_feedback(std::uint32_t, double, CsiMatrix&) override {
    return false;
  }
  bool csi_true(std::uint32_t, double, CsiMatrix&) override { return false; }
  std::optional<double> rssi_dbm(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    ++reads[u];
    last_t = t;
    return 100.0 + u + t;
  }
  std::optional<double> snr_db(std::uint32_t, double) override {
    return std::nullopt;
  }
  std::optional<double> true_distance(std::uint32_t, double) override {
    return std::nullopt;
  }

  int reads[3] = {0, 0, 0};
  double last_t = -1.0;
};

TEST(FaultedSourceTest, DroppedTofNeverTouchesInner) {
  // Every unit's ToF export follows the one absence rule: a dropped reading
  // is never taken, a served one is taken at the delayed instant.
  FaultPlan plan;
  plan.tof.drop_prob = 0.5;
  plan.tof.delay_s = 0.1;
  plan.seed = 5;
  CountingTofSource inner;
  FaultedSource faulted(inner, plan);
  std::vector<FaultStream> tof_fault;
  for (std::uint64_t u = 0; u < 3; ++u)
    tof_fault.push_back(make_stream(plan, FaultStreamKind::kTof, u));
  int served = 0;
  int dropped = 0;
  for (int i = 0; i < 40; ++i) {
    const double t = 0.025 * i;
    const double measured = std::max(0.0, t - 0.1);
    for (std::uint32_t u = 0; u < 3; ++u) {
      const int before = inner.reads[u];
      const auto v = faulted.tof_cycles(u, t);
      if (tof_fault[u].deliver(t)) {
        EXPECT_EQ(v, 100.0 + u + measured) << "i=" << i << " u=" << u;
        EXPECT_EQ(inner.reads[u], before + 1);
        EXPECT_EQ(inner.last_t, measured);
        ++served;
      } else {
        EXPECT_FALSE(v) << "i=" << i << " u=" << u;
        EXPECT_EQ(inner.reads[u], before) << "dropped read reached inner";
        ++dropped;
      }
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(dropped, 0);

  // Stock firmware: no unit exports a reading, and none is taken.
  FaultPlan stock;
  stock.rssi_only = true;
  CountingTofSource stock_inner;
  FaultedSource stock_faulted(stock_inner, stock);
  for (std::uint32_t u = 0; u < 3; ++u)
    EXPECT_FALSE(stock_faulted.tof_cycles(u, 0.5));
  for (int n : stock_inner.reads) EXPECT_EQ(n, 0);

  // An all-zero plan is the inner read, bit for bit.
  CountingTofSource zero_inner;
  CountingTofSource reference;
  FaultedSource zero(zero_inner, FaultPlan{});
  for (double t : {0.0, 0.3, 1.7})
    for (std::uint32_t u = 0; u < 3; ++u) {
      const auto got = zero.tof_cycles(u, t);
      const auto want = reference.tof_cycles(u, t);
      ASSERT_TRUE(got && want);
      EXPECT_EQ(std::memcmp(&*got, &*want, sizeof(double)), 0);
    }
}

}  // namespace
}  // namespace mobiwlan::trace
