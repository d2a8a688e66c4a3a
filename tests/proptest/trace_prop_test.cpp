// Property suite for the MWTR v2 trace format: randomly generated traces
// (random stream sets, unit counts, geometries, cadences, absences) must
// survive a save -> load round trip bitwise — scalars, CSI matrices, flags,
// ordering — and TraceSource must replay every stream in recorded order,
// decoding each record exactly when its read comes (lockstep).
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "proptest.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

namespace mobiwlan::trace {
namespace {

using proptest::run_cases;

/// Scalar kinds the generator draws from (matrix kinds handled separately).
constexpr StreamKind kScalarKinds[] = {
    StreamKind::kRssi, StreamKind::kTof, StreamKind::kSnr,
    StreamKind::kTrueDistance, StreamKind::kScanRssi, StreamKind::kFeedbackOk};

struct GeneratedTrace {
  TraceHeader header;
  std::vector<TraceRecord> records;  // in write order
};

CsiMatrix random_matrix(Rng& rng, const TraceHeader& h) {
  CsiMatrix m(h.n_tx, h.n_rx, h.n_sc);
  for (std::size_t tx = 0; tx < h.n_tx; ++tx)
    for (std::size_t rx = 0; rx < h.n_rx; ++rx)
      for (std::size_t sc = 0; sc < h.n_sc; ++sc)
        m.at(tx, rx, sc) = cplx(rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0));
  return m;
}

/// Draws a random header and a random record sequence that is legal under
/// it: declared streams only, units in range, per-stream non-decreasing
/// timestamps (shared clock with occasional duplicates), ~15% absences.
GeneratedTrace generate(Rng& rng) {
  GeneratedTrace g;
  g.header.n_units = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  g.header.n_tx = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  g.header.n_rx = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
  g.header.n_sc = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  g.header.carrier_hz = rng.uniform(2.4e9, 6.0e9);

  std::vector<StreamKind> kinds;
  for (const StreamKind k : kScalarKinds)
    if (rng.uniform(0.0, 1.0) < 0.5) kinds.push_back(k);
  if (rng.uniform(0.0, 1.0) < 0.5) kinds.push_back(StreamKind::kCsi);
  if (kinds.empty()) kinds.push_back(StreamKind::kRssi);
  for (const StreamKind k : kinds) g.header.stream_mask |= stream_bit(k);

  const int n = rng.uniform_int(1, 60);
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.8) t += rng.uniform(0.0, 0.05);
    TraceRecord rec;
    rec.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kinds.size()) - 1))];
    rec.unit = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(g.header.n_units) - 1));
    rec.t = t;
    rec.present = rng.uniform(0.0, 1.0) >= 0.15;
    if (rec.present) {
      if (is_matrix_kind(rec.kind))
        rec.csi = random_matrix(rng, g.header);
      else
        rec.scalar = rng.gaussian(0.0, 100.0);
    }
    g.records.push_back(std::move(rec));
  }
  return g;
}

void write_trace(const std::string& path, const GeneratedTrace& g) {
  TraceWriter writer(path, g.header);
  for (const TraceRecord& rec : g.records) {
    if (!rec.present)
      writer.put_absent(rec.kind, rec.unit, rec.t);
    else if (is_matrix_kind(rec.kind))
      writer.put_csi(rec.kind, rec.unit, rec.t, rec.csi);
    else
      writer.put_scalar(rec.kind, rec.unit, rec.t, rec.scalar);
  }
  writer.close();
}

// Keyed by test name too: ctest runs each test of this binary as its own
// process, in parallel, and two tests must not share a case file.
std::string case_path(int index) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/trace_prop_" + info->name() + "_" +
         std::to_string(index) + ".mwtr";
}

TEST(TraceProp, SaveLoadRoundTripsBitwise) {
  run_cases("trace save/load round trip", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng);
    const std::string path = case_path(index);
    write_trace(path, g);

    TraceReader reader(path);
    EXPECT_EQ(reader.header().stream_mask, g.header.stream_mask);
    EXPECT_EQ(reader.header().n_units, g.header.n_units);
    EXPECT_EQ(reader.header().n_tx, g.header.n_tx);
    EXPECT_EQ(reader.header().n_rx, g.header.n_rx);
    EXPECT_EQ(reader.header().n_sc, g.header.n_sc);
    // Bitwise: the header carrier is a raw f64 round trip.
    EXPECT_EQ(reader.header().carrier_hz, g.header.carrier_hz);

    TraceRecord rec;
    for (std::size_t i = 0; i < g.records.size(); ++i) {
      ASSERT_TRUE(reader.next(rec)) << "record " << i << " missing";
      const TraceRecord& want = g.records[i];
      EXPECT_EQ(rec.kind, want.kind);
      EXPECT_EQ(rec.unit, want.unit);
      EXPECT_EQ(rec.t, want.t);  // bitwise, not approximate
      EXPECT_EQ(rec.present, want.present);
      if (!want.present) continue;
      if (is_matrix_kind(want.kind)) {
        ASSERT_EQ(rec.csi.n_tx(), want.csi.n_tx());
        ASSERT_EQ(rec.csi.n_rx(), want.csi.n_rx());
        ASSERT_EQ(rec.csi.n_subcarriers(), want.csi.n_subcarriers());
        for (std::size_t v = 0; v < rec.csi.raw().size(); ++v)
          EXPECT_EQ(rec.csi.raw()[v], want.csi.raw()[v]);
      } else {
        EXPECT_EQ(rec.scalar, want.scalar);
      }
    }
    EXPECT_FALSE(reader.next(rec)) << "trailing records";
    std::remove(path.c_str());
  });
}

TEST(TraceProp, TraceSourceReplaysEveryStreamInOrder) {
  run_cases("trace source in-order replay", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng);
    const std::string path = case_path(index);
    write_trace(path, g);

    // Querying each stream at exactly its recorded times must reproduce the
    // full log: present records by value, absences as nullopt/false.
    TraceSource src(path);  // strict
    // Lockstep: after every query exactly the records served so far have
    // been decoded — none is read ahead.
    auto expect_lockstep = [&src] {
      const auto& c = src.counters();
      EXPECT_EQ(c.decoded, c.served + c.absent);
    };
    CsiMatrix csi;
    for (const TraceRecord& want : g.records) {
      expect_lockstep();  // after the previous query
      if (is_matrix_kind(want.kind)) {
        const bool got = src.csi(want.unit, want.t, csi);
        EXPECT_EQ(got, want.present);
        if (got) {
          for (std::size_t v = 0; v < csi.raw().size(); ++v)
            EXPECT_EQ(csi.raw()[v], want.csi.raw()[v]);
        }
      } else {
        std::optional<double> got;
        switch (want.kind) {
          case StreamKind::kRssi: got = src.rssi_dbm(want.unit, want.t); break;
          case StreamKind::kTof: got = src.tof_cycles(want.unit, want.t); break;
          case StreamKind::kSnr: got = src.snr_db(want.unit, want.t); break;
          case StreamKind::kTrueDistance:
            got = src.true_distance(want.unit, want.t);
            break;
          case StreamKind::kScanRssi:
            got = src.scan_rssi_dbm(want.unit, want.t);
            break;
          case StreamKind::kFeedbackOk:
            // feedback_delivered collapses the scalar to a bool; absences
            // default to "delivered".
            EXPECT_EQ(src.feedback_delivered(want.unit, want.t),
                      !want.present || want.scalar != 0.0);
            continue;
          default: FAIL() << "unexpected kind"; continue;
        }
        EXPECT_EQ(got.has_value(), want.present);
        if (got) {
          EXPECT_EQ(*got, want.scalar);
        }
      }
    }
    expect_lockstep();  // after the last query
    const auto& c = src.counters();
    EXPECT_EQ(c.decoded, g.records.size());
    EXPECT_EQ(c.held, 0u);
    EXPECT_EQ(c.missing, 0u);
    EXPECT_EQ(c.skipped, 0u);
    std::remove(path.c_str());
  });
}

}  // namespace
}  // namespace mobiwlan::trace
