// trace_zero_alloc_test — the trace layer's allocation contract.
//
// Links the counting operator-new replacement (mobiwlan_alloc_hook) and
// asserts that once the first second of a link has warmed every buffer,
// each read allocates nothing on either side of a recording: the
// RecordingSource -> TraceWriter tee that records a live simulate_link run,
// and the strict TraceSource replay of that recording. The writer's chunk
// buffer is also pinned directly: the record that crosses the flush
// threshold never grows it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/link_sim.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan::trace {
namespace {

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Forwards every read to `inner` and, for reads at or after `warm_s`,
/// counts the reads and the heap allocations made inside them.
class AllocCountingSource : public ObservableSource {
 public:
  AllocCountingSource(ObservableSource& inner, double warm_s)
      : inner_(inner), warm_s_(warm_s) {}

  std::size_t n_units() const override { return inner_.n_units(); }
  bool has(StreamKind kind) const override { return inner_.has(kind); }
  bool csi(std::uint32_t u, double t, CsiMatrix& out) override {
    return counted(t, [&] { return inner_.csi(u, t, out); });
  }
  bool csi_feedback(std::uint32_t u, double t, CsiMatrix& out) override {
    return counted(t, [&] { return inner_.csi_feedback(u, t, out); });
  }
  bool csi_true(std::uint32_t u, double t, CsiMatrix& out) override {
    return counted(t, [&] { return inner_.csi_true(u, t, out); });
  }
  std::optional<double> rssi_dbm(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.rssi_dbm(u, t); });
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.scan_rssi_dbm(u, t); });
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.tof_cycles(u, t); });
  }
  std::optional<double> snr_db(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.snr_db(u, t); });
  }
  std::optional<double> true_distance(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.true_distance(u, t); });
  }
  bool feedback_delivered(std::uint32_t u, double t) override {
    return counted(t, [&] { return inner_.feedback_delivered(u, t); });
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t allocs() const { return allocs_; }

 private:
  template <typename F>
  std::invoke_result_t<F&> counted(double t, F&& read) {
    const std::uint64_t before = alloc_count();
    auto v = read();
    if (t >= warm_s_) {
      ++reads_;
      allocs_ += alloc_count() - before;
    }
    return v;
  }

  ObservableSource& inner_;
  double warm_s_;
  std::uint64_t reads_ = 0;
  std::uint64_t allocs_ = 0;
};

constexpr double kWarmS = 1.0;

LinkSimConfig link_config() {
  LinkSimConfig cfg;
  cfg.duration_s = 4.0;
  return cfg;
}

class TraceZeroAlloc : public ::testing::TestWithParam<MobilityClass> {};

TEST_P(TraceZeroAlloc, RecordAndStrictReplayReadsSteadyState) {
  ASSERT_TRUE(alloc_hook_active());
  const MobilityClass cls = GetParam();
  const std::string path =
      tmp("zero_alloc_" + std::string(to_string(cls)) + ".mwtr");
  const LinkSimConfig cfg = link_config();
  const std::uint64_t seed = 41 + static_cast<std::uint64_t>(cls);

  LinkSimResult live_result;
  {
    Rng rng(seed);
    Scenario s = make_scenario(cls, rng);
    LiveChannelSource live(*s.channel);
    TraceWriter writer(path, RecordingSource::header_for(live, ChannelConfig{}));
    RecordingSource tee(live, writer);
    AllocCountingSource counted(tee, kWarmS);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(seed + 1);
    live_result = simulate_link(counted, ra, cfg, sim_rng, s.truth);
    writer.close();
    EXPECT_GT(counted.reads(), 1000u);
    EXPECT_EQ(counted.allocs(), 0u) << "recording reads allocated";
  }

  Rng rng(seed);
  const Scenario s = make_scenario(cls, rng);
  TraceSource replay(path);  // strict
  AllocCountingSource counted(replay, kWarmS);
  AtherosRa ra = make_mobility_aware_atheros_ra();
  Rng sim_rng(seed + 1);
  const LinkSimResult r = simulate_link(counted, ra, cfg, sim_rng, s.truth);
  EXPECT_GT(counted.reads(), 1000u);
  EXPECT_EQ(counted.allocs(), 0u) << "strict replay reads allocated";
  EXPECT_EQ(r.frames, live_result.frames);
  EXPECT_EQ(r.mcs_series, live_result.mcs_series);
  EXPECT_EQ(replay.counters().decoded,
            replay.counters().served + replay.counters().absent);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Classes, TraceZeroAlloc,
    ::testing::Values(MobilityClass::kStatic, MobilityClass::kEnvironmental,
                      MobilityClass::kMicro, MobilityClass::kMacro),
    [](const ::testing::TestParamInfo<MobilityClass>& param_info) {
      return std::string(to_string(param_info.param));
    });

TEST(TraceZeroAllocWriter, ChunkCrossingRecordDoesNotGrowTheBuffer) {
  // 13,100 scalar records fill the open chunk to 262,000 B, just short of
  // the 256 KiB flush threshold; the next record is a full 3x2x52 CSI
  // matrix (12 + 4,992 B) that ends past it.
  const std::string path = tmp("zero_alloc_writer.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kCsi);
  h.n_tx = 3;
  h.n_rx = 2;
  h.n_sc = 52;
  const CsiMatrix csi(3, 2, 52);
  TraceWriter writer(path, h);
  for (int i = 0; i < 13100; ++i)
    writer.put_scalar(StreamKind::kRssi, 0, 0.001 * i, -50.0);
  const std::uint64_t before = alloc_count();
  writer.put_csi(StreamKind::kCsi, 0, 13.1, csi);
  EXPECT_EQ(alloc_count() - before, 0u);
  writer.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mobiwlan::trace
