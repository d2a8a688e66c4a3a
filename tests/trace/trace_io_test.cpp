// Tests for the MWTR v2 binary trace format: TraceWriter/TraceReader
// round-trips, writer misuse, and the typed rejection of every class of
// malformed input (wrong magic, legacy v1 files, unknown versions,
// truncation, non-monotone stream timestamps, corrupt records), the
// reader's peek and rewind, and the CSV importer's rejection of NaN
// timestamps and out-of-range integer fields.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/import.hpp"

namespace mobiwlan::trace {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

TraceHeader scalar_header() {
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kTof);
  h.n_units = 2;
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  return h;
}

CsiMatrix test_matrix(std::size_t n_tx, std::size_t n_rx, std::size_t n_sc,
                      double salt) {
  CsiMatrix m(n_tx, n_rx, n_sc);
  for (std::size_t tx = 0; tx < n_tx; ++tx)
    for (std::size_t rx = 0; rx < n_rx; ++rx)
      for (std::size_t sc = 0; sc < n_sc; ++sc)
        m.at(tx, rx, sc) = cplx(salt + static_cast<double>(sc),
                                salt - static_cast<double>(tx + rx));
  return m;
}

// ---- little-endian byte assembly for hand-crafted malformed files ---------

void put_u32(std::vector<unsigned char>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back((v >> (8 * i)) & 0xFF);
}

void put_u16(std::vector<unsigned char>& b, std::uint16_t v) {
  b.push_back(v & 0xFF);
  b.push_back((v >> 8) & 0xFF);
}

void put_f64(std::vector<unsigned char>& b, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) b.push_back((bits >> (8 * i)) & 0xFF);
}

void put_header(std::vector<unsigned char>& b, std::uint32_t magic,
                std::uint32_t version, std::uint32_t mask) {
  put_u32(b, magic);
  put_u32(b, version);
  put_u32(b, mask);
  put_u32(b, 1);  // n_units
  put_u32(b, 1);  // n_tx
  put_u32(b, 1);  // n_rx
  put_u32(b, 1);  // n_sc
  put_u32(b, 0);  // reserved
  put_f64(b, 0.0);
  put_f64(b, 0.0);
}

void put_scalar_record(std::vector<unsigned char>& b, StreamKind kind,
                       std::uint8_t flags, std::uint16_t unit, double t,
                       double value) {
  b.push_back(static_cast<unsigned char>(kind));
  b.push_back(flags);
  put_u16(b, unit);
  put_f64(b, t);
  if (!(flags & kFlagAbsent)) put_f64(b, value);
}

void write_bytes(const std::string& path, const std::vector<unsigned char>& b) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

TraceError::Code code_of(const std::string& path) {
  try {
    TraceReader reader(path);
    TraceRecord rec;
    while (reader.next(rec)) {
    }
  } catch (const TraceError& e) {
    return e.code();
  }
  ADD_FAILURE() << path << " was accepted";
  return TraceError::Code::kOpenFailed;
}

// ---- round-trips -----------------------------------------------------------

TEST(TraceIoTest, ScalarRoundTrip) {
  const std::string path = tmp("io_scalar.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    writer.put_scalar(StreamKind::kRssi, 0, 0.0, -55.5);
    writer.put_scalar(StreamKind::kTof, 1, 0.0, 412.25);
    writer.put_scalar(StreamKind::kRssi, 0, 0.1, -56.0);
    writer.close();
    EXPECT_EQ(writer.records_written(), 3u);
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.header().stream_mask, scalar_header().stream_mask);
  EXPECT_EQ(reader.header().n_units, 2u);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.kind, StreamKind::kRssi);
  EXPECT_EQ(rec.unit, 0u);
  EXPECT_TRUE(rec.present);
  EXPECT_DOUBLE_EQ(rec.t, 0.0);
  EXPECT_DOUBLE_EQ(rec.scalar, -55.5);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.kind, StreamKind::kTof);
  EXPECT_EQ(rec.unit, 1u);
  EXPECT_DOUBLE_EQ(rec.scalar, 412.25);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_DOUBLE_EQ(rec.scalar, -56.0);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.records_read(), 3u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MatrixRoundTripBitwise) {
  const std::string path = tmp("io_matrix.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kCsi);
  h.n_tx = 2;
  h.n_rx = 2;
  h.n_sc = 3;
  const CsiMatrix m = test_matrix(2, 2, 3, 0.75);
  {
    TraceWriter writer(path, h);
    writer.put_csi(StreamKind::kCsi, 0, 1.5, m);
    writer.close();
  }
  TraceReader reader(path);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.kind, StreamKind::kCsi);
  EXPECT_DOUBLE_EQ(rec.t, 1.5);
  ASSERT_EQ(rec.csi.n_tx(), 2u);
  ASSERT_EQ(rec.csi.n_rx(), 2u);
  ASSERT_EQ(rec.csi.n_subcarriers(), 3u);
  for (std::size_t tx = 0; tx < 2; ++tx)
    for (std::size_t rx = 0; rx < 2; ++rx)
      for (std::size_t sc = 0; sc < 3; ++sc)
        EXPECT_EQ(rec.csi.at(tx, rx, sc), m.at(tx, rx, sc));
  std::remove(path.c_str());
}

TEST(TraceIoTest, AbsenceRecordRoundTrips) {
  const std::string path = tmp("io_absent.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    writer.put_scalar(StreamKind::kRssi, 0, 0.0, -50.0);
    writer.put_absent(StreamKind::kRssi, 0, 0.1);
    writer.put_scalar(StreamKind::kRssi, 0, 0.2, -51.0);
    writer.close();
  }
  TraceReader reader(path);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_TRUE(rec.present);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_FALSE(rec.present);
  EXPECT_DOUBLE_EQ(rec.t, 0.1);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_TRUE(rec.present);
  EXPECT_DOUBLE_EQ(rec.scalar, -51.0);
  std::remove(path.c_str());
}

TEST(TraceIoTest, DuplicateTimestampsAreLegal) {
  const std::string path = tmp("io_dup.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    writer.put_scalar(StreamKind::kRssi, 0, 0.5, -50.0);
    writer.put_scalar(StreamKind::kRssi, 0, 0.5, -51.0);  // same t: a re-read
    writer.close();
  }
  TraceReader reader(path);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_DOUBLE_EQ(rec.scalar, -50.0);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_DOUBLE_EQ(rec.scalar, -51.0);
  std::remove(path.c_str());
}

TEST(TraceIoTest, PeekReportsTheNextHeadWithoutConsumingIt) {
  const std::string path = tmp("io_peek.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    writer.put_scalar(StreamKind::kTof, 1, 0.25, 410.0);
    writer.put_absent(StreamKind::kRssi, 0, 0.5);
    writer.close();
  }
  TraceReader reader(path);
  const TraceReader::Head* head = reader.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->kind, StreamKind::kTof);
  EXPECT_EQ(head->unit, 1u);
  EXPECT_EQ(head->t, 0.25);
  EXPECT_TRUE(head->present);
  EXPECT_EQ(reader.peek(), head);  // idempotent until next()
  EXPECT_EQ(reader.records_read(), 0u);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.kind, StreamKind::kTof);
  EXPECT_EQ(rec.scalar, 410.0);
  head = reader.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->kind, StreamKind::kRssi);
  EXPECT_FALSE(head->present);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_FALSE(rec.present);
  EXPECT_EQ(reader.peek(), nullptr);
  EXPECT_FALSE(reader.next(rec));
  std::remove(path.c_str());
}

TEST(TraceIoTest, RewindRestartsAtTheFirstRecord) {
  const std::string path = tmp("io_rewind.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    for (int i = 0; i < 4; ++i)
      writer.put_scalar(StreamKind::kRssi, 0, 0.1 * i, -50.0 - i);
    writer.close();
  }
  TraceReader reader(path);
  TraceRecord rec;
  while (reader.next(rec)) {
  }
  EXPECT_EQ(reader.records_read(), 4u);
  reader.rewind();
  EXPECT_EQ(reader.records_read(), 0u);
  // The per-stream timestamp cursor restarts too: t=0 is no regression.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.t, 0.1 * i);
    EXPECT_EQ(rec.scalar, -50.0 - i);
  }
  EXPECT_FALSE(reader.next(rec));
  std::remove(path.c_str());
}

// ---- writer misuse ---------------------------------------------------------

TEST(TraceIoTest, WriterRejectsUndeclaredStream) {
  const std::string path = tmp("io_undeclared.mwtr");
  TraceWriter writer(path, scalar_header());
  try {
    writer.put_scalar(StreamKind::kSnr, 0, 0.0, 10.0);
    FAIL() << "undeclared stream accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kMissingStream);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, WriterRejectsUnitOutOfRange) {
  const std::string path = tmp("io_unit.mwtr");
  TraceWriter writer(path, scalar_header());  // n_units = 2
  try {
    writer.put_scalar(StreamKind::kRssi, 2, 0.0, -50.0);
    FAIL() << "out-of-range unit accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kCorruptRecord);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, WriterRejectsTimeRegression) {
  const std::string path = tmp("io_regress.mwtr");
  TraceWriter writer(path, scalar_header());
  writer.put_scalar(StreamKind::kRssi, 0, 1.0, -50.0);
  // A different stream (other unit) may still start earlier...
  writer.put_scalar(StreamKind::kRssi, 1, 0.5, -60.0);
  // ...but the same (kind, unit) stream must never regress.
  try {
    writer.put_scalar(StreamKind::kRssi, 0, 0.5, -50.0);
    FAIL() << "time regression accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kNonMonotoneTime);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, WriterRejectsNaNTimestamp) {
  const std::string path = tmp("io_nan_t.mwtr");
  TraceWriter writer(path, scalar_header());
  writer.put_scalar(StreamKind::kRssi, 0, 0.5, -50.0);
  try {
    writer.put_scalar(StreamKind::kRssi, 0,
                      std::numeric_limits<double>::quiet_NaN(), -50.0);
    FAIL() << "NaN timestamp accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kCorruptRecord);
  }
  // The rejected record leaves the stream's last time at 0.5.
  try {
    writer.put_scalar(StreamKind::kRssi, 0, 0.1, -50.0);
    FAIL() << "time regression after a NaN accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kNonMonotoneTime);
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, ReaderRejectsNonFiniteScalar) {
  // The writer records whatever a source returned; the reader is the
  // boundary that must refuse a non-finite observable before it is replayed.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::string path = tmp("io_nonfinite.mwtr");
    {
      TraceWriter writer(path, scalar_header());
      writer.put_scalar(StreamKind::kRssi, 0, 0.1, -50.0);
      writer.put_scalar(StreamKind::kRssi, 0, 0.2, bad);
      writer.close();
    }
    TraceReader reader(path);
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.scalar, -50.0);
    try {
      reader.next(rec);
      FAIL() << "non-finite scalar " << bad << " replayed";
    } catch (const TraceError& e) {
      EXPECT_EQ(e.code(), TraceError::Code::kCorruptRecord) << e.what();
    }
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, WriterRejectsGeometryMismatch) {
  const std::string path = tmp("io_geom.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kCsi);
  h.n_tx = 2;
  h.n_rx = 2;
  h.n_sc = 3;
  TraceWriter writer(path, h);
  try {
    writer.put_csi(StreamKind::kCsi, 0, 0.0, test_matrix(1, 1, 3, 0.0));
    FAIL() << "geometry mismatch accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kBadGeometry);
  }
  std::remove(path.c_str());
}

// ---- malformed input -------------------------------------------------------

TEST(TraceIoTest, MissingFileIsOpenFailed) {
  try {
    TraceReader reader("/nonexistent/path/trace.mwtr");
    FAIL() << "missing file accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kOpenFailed);
  }
}

TEST(TraceIoTest, GarbageIsBadMagic) {
  const std::string path = tmp("io_garbage.mwtr");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a trace file at all, but it is long enough";
  }
  EXPECT_EQ(code_of(path), TraceError::Code::kBadMagic);
  std::remove(path.c_str());
}

TEST(TraceIoTest, LegacyV1MagicIsBadVersion) {
  // The retired v1 layout opens with "CSIT"; pointing the v2 reader at
  // it must say "wrong version", not "not a trace" — the user should learn
  // to re-record, not to suspect corruption.
  const std::string path = tmp("io_legacy.mwtr");
  std::vector<unsigned char> b;
  put_u32(b, 0x43534954u);  // legacy v1 magic
  put_u32(b, 1);
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kBadVersion);
  std::remove(path.c_str());
}

TEST(TraceIoTest, UnknownVersionIsBadVersion) {
  const std::string path = tmp("io_version.mwtr");
  std::vector<unsigned char> b;
  put_header(b, kMagic, kFormatVersion + 1,
             stream_bit(StreamKind::kRssi));
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kBadVersion);
  std::remove(path.c_str());
}

TEST(TraceIoTest, TruncatedHeaderIsTruncated) {
  const std::string path = tmp("io_trunc_header.mwtr");
  std::vector<unsigned char> b;
  put_u32(b, kMagic);
  put_u32(b, kFormatVersion);
  put_u32(b, stream_bit(StreamKind::kRssi));  // header stops mid-way
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kTruncated);
  std::remove(path.c_str());
}

TEST(TraceIoTest, TruncatedChunkIsTruncated) {
  const std::string path = tmp("io_trunc_chunk.mwtr");
  {
    TraceWriter writer(path, scalar_header());
    for (int i = 0; i < 16; ++i)
      writer.put_scalar(StreamKind::kRssi, 0, 0.1 * i, -50.0 - i);
    writer.close();
  }
  // Chop the tail off the valid file: EOF lands inside the chunk payload.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);
  bytes.resize(bytes.size() - 7);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(code_of(path), TraceError::Code::kTruncated);
  std::remove(path.c_str());
}

TEST(TraceIoTest, NonMonotoneTimestampsRejected) {
  const std::string path = tmp("io_nonmono.mwtr");
  std::vector<unsigned char> b;
  put_header(b, kMagic, kFormatVersion, stream_bit(StreamKind::kRssi));
  std::vector<unsigned char> records;
  put_scalar_record(records, StreamKind::kRssi, 0, 0, 1.0, -50.0);
  put_scalar_record(records, StreamKind::kRssi, 0, 0, 0.5, -51.0);  // regress
  put_u32(b, 2);  // record_count
  put_u32(b, static_cast<std::uint32_t>(records.size()));
  b.insert(b.end(), records.begin(), records.end());
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kNonMonotoneTime);
  std::remove(path.c_str());
}

TEST(TraceIoTest, UnknownStreamKindIsCorrupt) {
  const std::string path = tmp("io_badkind.mwtr");
  std::vector<unsigned char> b;
  put_header(b, kMagic, kFormatVersion, stream_bit(StreamKind::kRssi));
  std::vector<unsigned char> records;
  records.push_back(200);  // not a StreamKind
  records.push_back(0);
  put_u16(records, 0);
  put_f64(records, 0.0);
  put_f64(records, -50.0);
  put_u32(b, 1);
  put_u32(b, static_cast<std::uint32_t>(records.size()));
  b.insert(b.end(), records.begin(), records.end());
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kCorruptRecord);
  std::remove(path.c_str());
}

TEST(TraceIoTest, UnknownMaskBitsRejected) {
  // Additive evolution policy: a trace declaring stream kinds this reader
  // does not know must be refused loudly, never skipped silently.
  const std::string path = tmp("io_badmask.mwtr");
  std::vector<unsigned char> b;
  put_header(b, kMagic, kFormatVersion, 1u << 31);
  write_bytes(path, b);
  EXPECT_EQ(code_of(path), TraceError::Code::kBadGeometry);
  std::remove(path.c_str());
}

TEST(TraceIoTest, CloseIsIdempotentAndFlushes) {
  const std::string path = tmp("io_close.mwtr");
  TraceWriter writer(path, scalar_header());
  writer.put_scalar(StreamKind::kRssi, 0, 0.0, -42.0);
  writer.close();
  writer.close();  // no-op
  TraceReader reader(path);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_DOUBLE_EQ(rec.scalar, -42.0);
  std::remove(path.c_str());
}

// ---- CSV import ------------------------------------------------------------

/// Imports `body` (the lines after the `mwtr-csv,2` directive) and returns
/// the TraceError code it raises.
TraceError::Code import_code(const char* name, const std::string& body) {
  const std::string csv = tmp(name);
  const std::string out = csv + ".mwtr";
  {
    std::ofstream f(csv);
    f << "mwtr-csv,2\n" << body;
  }
  TraceError::Code code = TraceError::Code::kOpenFailed;
  try {
    import_csv(csv, out);
    ADD_FAILURE() << name << " was accepted";
  } catch (const TraceError& e) {
    code = e.code();
  }
  std::remove(csv.c_str());
  std::remove(out.c_str());
  return code;
}

TEST(TraceIoTest, ImportRejectsNaNTimestamp) {
  EXPECT_EQ(import_code("imp_nan_t.csv",
                        "streams,rssi\ndata\n"
                        "rssi,0,0.5,-50\nrssi,0,nan,-50\nrssi,0,0.1,-50\n"),
            TraceError::Code::kCorruptRecord);
}

TEST(TraceIoTest, ImportRejectsNonFiniteValues) {
  // A NaN SNR would price every MPDU at NaN, which no loss draw is below:
  // the replay would silently deliver everything.
  const auto rows = [](const std::string& v) {
    return std::vector<std::string>{
        "streams,snr\ndata\nsnr,0,0.0," + v + "\n",
        "streams,csi\ngeometry,1,1,2\ndata\ncsi,0,0.0," + v + ",0,1,0\n",
        "streams,csi\ngeometry,1,1,2\ndata\ncsi,0,0.0,1,0,1," + v + "\n"};
  };
  // The same rows with a finite value import: only the value is at fault.
  for (const std::string& body : rows("0.5")) {
    const std::string csv = tmp("imp_finite.csv");
    const std::string out = csv + ".mwtr";
    {
      std::ofstream f(csv);
      f << "mwtr-csv,2\n" << body;
    }
    EXPECT_EQ(import_csv(csv, out), 1u) << body;
    std::remove(csv.c_str());
    std::remove(out.c_str());
  }
  for (const char* v : {"nan", "inf", "-inf"})
    for (const std::string& body : rows(v))
      EXPECT_EQ(import_code("imp_nonfinite.csv", body),
                TraceError::Code::kCorruptRecord)
          << body;
}

TEST(TraceIoTest, ImportRejectsOutOfRangeUnsignedFields) {
  EXPECT_EQ(import_code("imp_units_big.csv",
                        "streams,rssi\nunits,4294967296\ndata\n"),
            TraceError::Code::kCorruptRecord);
  EXPECT_EQ(import_code("imp_units_nan.csv",
                        "streams,rssi\nunits,nan\ndata\n"),
            TraceError::Code::kCorruptRecord);
  EXPECT_EQ(import_code("imp_geom_big.csv",
                        "streams,csi\ngeometry,1,1,1e20\ndata\n"),
            TraceError::Code::kCorruptRecord);
}

}  // namespace
}  // namespace mobiwlan::trace
