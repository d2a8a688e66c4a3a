// trace_io.hpp — streamed chunked reader/writer for the MWTR trace format.
//
// TraceWriter appends records into an in-memory chunk buffer and flushes it
// to disk whenever it reaches ~256 KiB, so recording a multi-hour run writes
// sequentially in constant memory. TraceReader walks the file one chunk at a
// time with the same bound. Both enforce the format invariants (geometry,
// per-stream timestamp monotonicity, declared streams) and raise TraceError
// with a specific code on any violation — a malformed file never yields a
// silent partial trace.
#pragma once

#include <cstdio>
#include <vector>

#include "trace/format.hpp"

namespace mobiwlan::trace {

class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header. Throws kOpenFailed /
  /// kBadGeometry / kWriteFailed.
  TraceWriter(const std::string& path, const TraceHeader& header);
  ~TraceWriter();  // best-effort close(); errors are swallowed here

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one scalar record. `kind` must be declared in the header mask
  /// and scalar-payload; `t` must be non-decreasing within (kind, unit).
  void put_scalar(StreamKind kind, std::uint32_t unit, double t, double value);

  /// Appends one CSI record; the matrix must match the header geometry.
  void put_csi(StreamKind kind, std::uint32_t unit, double t,
               const CsiMatrix& csi);

  /// Appends an absence record: the read at t returned nothing (dropped
  /// export). Carries no payload; replay reproduces the absence.
  void put_absent(StreamKind kind, std::uint32_t unit, double t);

  /// Flushes the open chunk and closes the file. Throws kWriteFailed if any
  /// byte failed to reach the file. Idempotent.
  void close();

  const TraceHeader& header() const { return header_; }
  std::uint64_t records_written() const { return n_records_; }

 private:
  void begin_record(StreamKind kind, std::uint32_t unit, double t,
                    std::uint8_t flags = 0);
  void flush_chunk();

  std::FILE* f_ = nullptr;
  std::string path_;
  TraceHeader header_;
  std::vector<unsigned char> buf_;   // open chunk payload
  std::uint32_t chunk_records_ = 0;
  std::uint64_t n_records_ = 0;
  std::vector<double> last_t_;       // per (kind, unit) monotonicity cursor
};

class TraceReader {
 public:
  /// Opens `path` and validates the header. Throws kOpenFailed, kBadMagic,
  /// kBadVersion, kTruncated, or kBadGeometry.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  const TraceHeader& header() const { return header_; }

  /// A record's fields known before its payload is decoded.
  struct Head {
    StreamKind kind = StreamKind::kCsi;
    std::uint32_t unit = 0;
    double t = 0.0;
    bool present = true;
  };

  /// Validates the next record's head (kind, flags, unit, per-stream
  /// timestamp order) and returns it without consuming the record, so a
  /// caller can pick the decode target by stream first. nullptr at clean
  /// end-of-file; throws what next() would throw for that head.
  const Head* peek();

  /// Decodes the next record into `out` (reusing its CsiMatrix storage).
  /// Returns false at clean end-of-file; throws TraceError on truncation,
  /// corruption, or per-stream timestamp regression.
  bool next(TraceRecord& out);

  /// Restarts at the first record, keeping the chunk buffer.
  void rewind();

  std::uint64_t records_read() const { return n_records_; }

 private:
  void load_chunk();  // refills chunk_ from the file; sets eof_ at clean EOF
  void need(std::size_t n) const;  // throws kTruncated past the chunk's end

  std::FILE* f_ = nullptr;
  std::string path_;
  TraceHeader header_;
  std::vector<unsigned char> chunk_;
  std::size_t pos_ = 0;
  std::uint32_t chunk_left_ = 0;  // records remaining in the loaded chunk
  bool eof_ = false;
  Head head_;               // valid while have_head_
  bool have_head_ = false;  // peek() consumed head_'s bytes, not its payload
  std::uint64_t n_records_ = 0;
  std::vector<double> last_t_;
};

}  // namespace mobiwlan::trace
