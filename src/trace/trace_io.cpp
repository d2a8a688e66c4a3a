#include "trace/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace mobiwlan::trace {

namespace {

// Chunk payloads flush at this size; a single record larger than it (a big
// CSI matrix) still forms its own chunk.
constexpr std::size_t kChunkBytes = 256 * 1024;

// Sanity bounds rejecting absurd headers/chunks before any allocation, so a
// corrupt size field cannot OOM the reader.
constexpr std::uint32_t kMaxUnits = 1u << 16;
constexpr std::size_t kMaxCsiValues = 1u << 24;
constexpr std::uint32_t kMaxChunkPayload = 1u << 30;

constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kRecordHeadBytes = 1 + 1 + 2 + 8;  // kind,flags,unit,t

static_assert(sizeof(double) == 8, "MWTR requires 8-byte IEEE doubles");

void append_bytes(std::vector<unsigned char>& buf, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  buf.insert(buf.end(), b, b + n);
}

/// The largest record `h` admits: a full CSI matrix when a matrix stream is
/// declared, else one scalar. A chunk flushes once it reaches kChunkBytes,
/// so kChunkBytes plus this bounds every chunk a TraceWriter produces.
std::size_t max_record_bytes(const TraceHeader& h) {
  std::size_t payload = 8;
  for (std::size_t k = 0; k < kNumStreamKinds; ++k)
    if (h.has(static_cast<StreamKind>(k)) &&
        is_matrix_kind(static_cast<StreamKind>(k)))
      payload = std::max(payload,
                         h.csi_values() * sizeof(std::complex<double>));
  return kRecordHeadBytes + payload;
}

void check_geometry(const TraceHeader& h) {
  if (h.n_units == 0 || h.n_units > kMaxUnits)
    throw TraceError(TraceError::Code::kBadGeometry,
                     "trace header: invalid unit count");
  bool any_matrix = false;
  for (std::size_t k = 0; k < kNumStreamKinds; ++k)
    if (h.has(static_cast<StreamKind>(k)) &&
        is_matrix_kind(static_cast<StreamKind>(k)))
      any_matrix = true;
  if (h.stream_mask >= (1u << kNumStreamKinds))
    throw TraceError(TraceError::Code::kBadGeometry,
                     "trace header: unknown stream kinds in mask");
  if (any_matrix && h.csi_values() == 0)
    throw TraceError(TraceError::Code::kBadGeometry,
                     "trace header: matrix streams declared with zero "
                     "CSI geometry");
  if (h.csi_values() > kMaxCsiValues)
    throw TraceError(TraceError::Code::kBadGeometry,
                     "trace header: CSI geometry implausibly large");
}

}  // namespace

std::string_view to_string(StreamKind k) {
  switch (k) {
    case StreamKind::kCsi: return "csi";
    case StreamKind::kRssi: return "rssi";
    case StreamKind::kTof: return "tof";
    case StreamKind::kSnr: return "snr";
    case StreamKind::kTrueCsi: return "true_csi";
    case StreamKind::kTrueDistance: return "true_distance";
    case StreamKind::kCsiFeedback: return "csi_feedback";
    case StreamKind::kScanRssi: return "scan_rssi";
    case StreamKind::kFeedbackOk: return "feedback_ok";
  }
  return "?";
}

std::string_view to_string(TraceError::Code c) {
  switch (c) {
    case TraceError::Code::kOpenFailed: return "open-failed";
    case TraceError::Code::kBadMagic: return "bad-magic";
    case TraceError::Code::kBadVersion: return "bad-version";
    case TraceError::Code::kTruncated: return "truncated";
    case TraceError::Code::kNonMonotoneTime: return "non-monotone-time";
    case TraceError::Code::kBadGeometry: return "bad-geometry";
    case TraceError::Code::kCorruptRecord: return "corrupt-record";
    case TraceError::Code::kMissingStream: return "missing-stream";
    case TraceError::Code::kTimestampSkew: return "timestamp-skew";
    case TraceError::Code::kWriteFailed: return "write-failed";
    case TraceError::Code::kBadConfig: return "bad-config";
  }
  return "?";
}

// ---- TraceWriter ----------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceHeader& header)
    : path_(path), header_(header) {
  check_geometry(header_);
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr)
    throw TraceError(TraceError::Code::kOpenFailed,
                     "cannot create trace file: " + path);
  last_t_.assign(kNumStreamKinds * header_.n_units,
                 -std::numeric_limits<double>::infinity());
  buf_.reserve(kChunkBytes + max_record_bytes(header_));

  unsigned char head[kHeaderBytes];
  std::size_t off = 0;
  auto put_u32 = [&](std::uint32_t v) {
    std::memcpy(head + off, &v, 4);
    off += 4;
  };
  auto put_f64 = [&](double v) {
    std::memcpy(head + off, &v, 8);
    off += 8;
  };
  put_u32(kMagic);
  put_u32(kFormatVersion);
  put_u32(header_.stream_mask);
  put_u32(header_.n_units);
  put_u32(header_.n_tx);
  put_u32(header_.n_rx);
  put_u32(header_.n_sc);
  put_u32(0);  // reserved
  put_f64(header_.carrier_hz);
  put_f64(header_.nominal_period_s);
  if (std::fwrite(head, 1, sizeof head, f_) != sizeof head) {
    std::fclose(f_);
    f_ = nullptr;
    throw TraceError(TraceError::Code::kWriteFailed,
                     "cannot write trace header: " + path);
  }
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (const TraceError&) {
    // Destructors must not throw; an explicit close() surfaces the error.
  }
}

void TraceWriter::begin_record(StreamKind kind, std::uint32_t unit, double t,
                               std::uint8_t flags) {
  if (!header_.has(kind))
    throw TraceError(TraceError::Code::kMissingStream,
                     std::string("trace write: stream '") +
                         std::string(to_string(kind)) +
                         "' not declared in header");
  if (unit >= header_.n_units)
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "trace write: unit out of range");
  double& last =
      last_t_[static_cast<std::size_t>(kind) * header_.n_units + unit];
  if (!(t >= last)) {  // false for a NaN t too, which the reader rejects
    if (t != t)
      throw TraceError(TraceError::Code::kCorruptRecord,
                       "trace write: record with NaN timestamp");
    throw TraceError(TraceError::Code::kNonMonotoneTime,
                     std::string("trace write: time regresses on stream '") +
                         std::string(to_string(kind)) + "'");
  }
  last = t;

  const std::uint8_t k = static_cast<std::uint8_t>(kind);
  const std::uint16_t u = static_cast<std::uint16_t>(unit);
  append_bytes(buf_, &k, 1);
  append_bytes(buf_, &flags, 1);
  append_bytes(buf_, &u, 2);
  append_bytes(buf_, &t, 8);
  ++chunk_records_;
  ++n_records_;
}

void TraceWriter::put_absent(StreamKind kind, std::uint32_t unit, double t) {
  begin_record(kind, unit, t, kFlagAbsent);
  if (buf_.size() >= kChunkBytes) flush_chunk();
}

void TraceWriter::put_scalar(StreamKind kind, std::uint32_t unit, double t,
                             double value) {
  if (is_matrix_kind(kind))
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "trace write: scalar payload for a matrix stream");
  begin_record(kind, unit, t);
  append_bytes(buf_, &value, 8);
  if (buf_.size() >= kChunkBytes) flush_chunk();
}

void TraceWriter::put_csi(StreamKind kind, std::uint32_t unit, double t,
                          const CsiMatrix& csi) {
  if (!is_matrix_kind(kind))
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "trace write: matrix payload for a scalar stream");
  if (csi.n_tx() != header_.n_tx || csi.n_rx() != header_.n_rx ||
      csi.n_subcarriers() != header_.n_sc)
    throw TraceError(TraceError::Code::kBadGeometry,
                     "trace write: CSI dimensions do not match the header");
  begin_record(kind, unit, t);
  // std::complex<double> is layout-compatible with double[2] (re, im), which
  // is exactly the on-disk payload — one memcpy-style append.
  append_bytes(buf_, csi.raw().data(),
               csi.raw().size() * sizeof(std::complex<double>));
  if (buf_.size() >= kChunkBytes) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (chunk_records_ == 0) return;
  if (f_ == nullptr)
    throw TraceError(TraceError::Code::kWriteFailed,
                     "trace write after close: " + path_);
  const std::uint32_t count = chunk_records_;
  const std::uint32_t bytes = static_cast<std::uint32_t>(buf_.size());
  bool ok = std::fwrite(&count, 4, 1, f_) == 1;
  ok = ok && std::fwrite(&bytes, 4, 1, f_) == 1;
  ok = ok && (buf_.empty() || std::fwrite(buf_.data(), 1, buf_.size(), f_) ==
                                  buf_.size());
  if (!ok)
    throw TraceError(TraceError::Code::kWriteFailed,
                     "cannot write trace chunk: " + path_);
  buf_.clear();
  chunk_records_ = 0;
}

void TraceWriter::close() {
  if (f_ == nullptr) return;
  flush_chunk();
  const bool ok = std::fflush(f_) == 0;
  std::fclose(f_);
  f_ = nullptr;
  if (!ok)
    throw TraceError(TraceError::Code::kWriteFailed,
                     "cannot flush trace file: " + path_);
}

// ---- TraceReader ----------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr)
    throw TraceError(TraceError::Code::kOpenFailed,
                     "cannot open trace file: " + path);
  try {
    unsigned char head[kHeaderBytes];
    const std::size_t got = std::fread(head, 1, sizeof head, f_);
    // A short file that cannot even hold the magic is classified by what is
    // there: wrong magic bytes beat "truncated" so garbage files report
    // kBadMagic (matching the legacy loader's behaviour), while a file that
    // starts like a real trace but ends early reports kTruncated.
    std::uint32_t magic = 0;
    if (got >= 4) std::memcpy(&magic, head, 4);
    if (got < 4 || magic != kMagic) {
      if (got >= 4 && magic == 0x43534954u)  // retired v1 layout, "CSIT"
        throw TraceError(TraceError::Code::kBadVersion,
                         "legacy v1 trace (re-record in the v2 format): " +
                             path);
      throw TraceError(TraceError::Code::kBadMagic,
                       "not a MWTR trace: " + path);
    }
    if (got < sizeof head)
      throw TraceError(TraceError::Code::kTruncated,
                       "truncated trace header: " + path);
    std::size_t off = 4;
    auto get_u32 = [&] {
      std::uint32_t v = 0;
      std::memcpy(&v, head + off, 4);
      off += 4;
      return v;
    };
    const std::uint32_t version = get_u32();
    if (version != kFormatVersion)
      throw TraceError(TraceError::Code::kBadVersion,
                       "unsupported trace format version: " + path);
    header_.stream_mask = get_u32();
    header_.n_units = get_u32();
    header_.n_tx = get_u32();
    header_.n_rx = get_u32();
    header_.n_sc = get_u32();
    get_u32();  // reserved
    std::memcpy(&header_.carrier_hz, head + off, 8);
    off += 8;
    std::memcpy(&header_.nominal_period_s, head + off, 8);
    check_geometry(header_);
    last_t_.assign(kNumStreamKinds * header_.n_units,
                   -std::numeric_limits<double>::infinity());
    chunk_.reserve(kChunkBytes + max_record_bytes(header_));
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    throw;
  }
}

TraceReader::~TraceReader() {
  if (f_ != nullptr) std::fclose(f_);
}

void TraceReader::load_chunk() {
  std::uint32_t head[2];
  const std::size_t got = std::fread(head, 1, sizeof head, f_);
  if (got == 0) {
    eof_ = true;
    return;
  }
  if (got != sizeof head)
    throw TraceError(TraceError::Code::kTruncated,
                     "truncated chunk header: " + path_);
  const std::uint32_t count = head[0];
  const std::uint32_t bytes = head[1];
  if (count == 0 || bytes > kMaxChunkPayload ||
      bytes < count * kRecordHeadBytes)
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "implausible chunk header: " + path_);
  chunk_.resize(bytes);
  if (std::fread(chunk_.data(), 1, bytes, f_) != bytes)
    throw TraceError(TraceError::Code::kTruncated,
                     "truncated chunk payload: " + path_);
  pos_ = 0;
  chunk_left_ = count;
}

void TraceReader::rewind() {
  if (std::fseek(f_, static_cast<long>(kHeaderBytes), SEEK_SET) != 0)
    throw TraceError(TraceError::Code::kOpenFailed,
                     "cannot rewind trace file: " + path_);
  pos_ = 0;
  chunk_left_ = 0;
  eof_ = false;
  have_head_ = false;
  n_records_ = 0;
  std::fill(last_t_.begin(), last_t_.end(),
            -std::numeric_limits<double>::infinity());
}

void TraceReader::need(std::size_t n) const {
  if (chunk_.size() - pos_ < n)
    throw TraceError(TraceError::Code::kTruncated,
                     "record overruns its chunk: " + path_);
}

const TraceReader::Head* TraceReader::peek() {
  if (have_head_) return &head_;
  while (chunk_left_ == 0) {
    if (eof_) return nullptr;
    load_chunk();
    if (eof_) return nullptr;
  }

  need(kRecordHeadBytes);
  const std::uint8_t kind_raw = chunk_[pos_];
  const std::uint8_t flags = chunk_[pos_ + 1];
  std::uint16_t unit = 0;
  std::memcpy(&unit, chunk_.data() + pos_ + 2, 2);
  double t = 0.0;
  std::memcpy(&t, chunk_.data() + pos_ + 4, 8);
  pos_ += kRecordHeadBytes;

  if (kind_raw >= kNumStreamKinds || (flags & ~kFlagAbsent) != 0)
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "undecodable record: " + path_);
  const StreamKind kind = static_cast<StreamKind>(kind_raw);
  if (!header_.has(kind))
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "record of an undeclared stream: " + path_);
  if (unit >= header_.n_units)
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "record unit out of range: " + path_);
  if (t != t)  // NaN would defeat the monotonicity invariant silently
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "record with NaN timestamp: " + path_);
  double& last =
      last_t_[static_cast<std::size_t>(kind) * header_.n_units + unit];
  if (t < last)
    throw TraceError(TraceError::Code::kNonMonotoneTime,
                     std::string("timestamps regress on stream '") +
                         std::string(to_string(kind)) + "': " + path_);
  last = t;

  head_.kind = kind;
  head_.unit = unit;
  head_.t = t;
  head_.present = (flags & kFlagAbsent) == 0;
  have_head_ = true;
  return &head_;
}

bool TraceReader::next(TraceRecord& out) {
  if (peek() == nullptr) return false;
  have_head_ = false;
  out.kind = head_.kind;
  out.unit = head_.unit;
  out.t = head_.t;
  out.present = head_.present;
  if (!out.present) {
    // Absent reads carry no payload.
  } else if (is_matrix_kind(out.kind)) {
    const std::size_t values = header_.csi_values();
    need(values * sizeof(std::complex<double>));
    out.csi.resize_for_overwrite(header_.n_tx, header_.n_rx, header_.n_sc);
    std::memcpy(out.csi.raw().data(), chunk_.data() + pos_,
                values * sizeof(std::complex<double>));
    pos_ += values * sizeof(std::complex<double>);
  } else {
    need(8);
    std::memcpy(&out.scalar, chunk_.data() + pos_, 8);
    pos_ += 8;
    // A NaN SNR would price every MPDU at NaN, which no loss draw is below.
    if (!std::isfinite(out.scalar))
      throw TraceError(TraceError::Code::kCorruptRecord,
                       "record with a non-finite scalar: " + path_);
  }
  --chunk_left_;
  ++n_records_;
  if (chunk_left_ == 0 && pos_ != chunk_.size())
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "chunk payload size mismatch: " + path_);
  return true;
}

}  // namespace mobiwlan::trace
