// format.hpp — the mobiwlan binary trace format (version 2).
//
// The paper's rate-adaptation (§4.3) and MU-MIMO (§6.2) results are
// trace-based emulations: PHY observables are recorded once and every scheme
// replays identical channel conditions. This module defines the on-disk
// format those recordings use — compact, little-endian, streamed — and the
// typed error every reader/writer raises on malformed input.
//
// Layout (all integers little-endian, all floats IEEE-754 binary64):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     4  magic "MWTR" (0x5254574D as LE u32)
//        4     4  format version (2)
//        8     4  stream mask (bit k set => StreamKind k may appear)
//       12     4  n_units (links/APs; records carry unit < n_units)
//       16     4  n_tx   |
//       20     4  n_rx   | CSI geometry (0s allowed for scalar-only traces)
//       24     4  n_sc   |
//       28     4  reserved (0)
//       32     8  carrier_hz (f64, 0 if unknown)
//       40     8  nominal_period_s (f64, 0 if irregular/stream-of-reads)
//
// After the 48-byte header, the file is a sequence of chunks until EOF:
//
//   { u32 record_count, u32 payload_bytes } followed by payload_bytes of
//   records. Chunks bound the working set: a reader never materializes more
//   than one chunk, so multi-hour traces stream in constant memory.
//
// Each record is:
//
//   { u8 kind, u8 flags, u16 unit, f64 t, payload }
//
// where payload is one f64 for scalar kinds, or n_tx*n_rx*n_sc (re, im) f64
// pairs (row-major, the CsiMatrix layout) for matrix kinds. A record with
// flags bit 0 (kFlagAbsent) set carries NO payload: it logs a read that
// returned nothing (a fault-dropped export), so replaying a degraded run
// reproduces its absence pattern exactly. Timestamps are non-decreasing per
// (kind, unit) stream — the writer enforces it and the reader verifies it,
// because replay consumes each stream as an ordered log.
//
// Versioning policy: the magic identifies the family, the version the layout.
// A reader accepts exactly the versions it knows (currently 2; the retired
// v1 layout opens with a different magic, "CSIT", and is rejected with
// kBadVersion so the user learns to re-record). Additive evolution (new
// StreamKinds) does not bump the version: unknown kinds in the mask are an
// error, so old readers refuse new traces loudly instead of misreading them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "phy/csi.hpp"

namespace mobiwlan::trace {

inline constexpr std::uint32_t kMagic = 0x5254574Du;  // "MWTR" little-endian
inline constexpr std::uint32_t kFormatVersion = 2;

/// One observable stream within a trace. A (kind, unit) pair is an ordered
/// log of reads: every consumer in the protocol loops reads its own stream
/// at non-decreasing times, so replay is a cursor walk per stream.
enum class StreamKind : std::uint8_t {
  kCsi = 0,           ///< measured (noisy) CSI fed to the classifier
  kRssi = 1,          ///< serving-link RSSI export (AP firmware)
  kTof = 2,           ///< noisy clock-quantized ToF reading
  kSnr = 3,           ///< true wideband SNR (drives the PHY error model)
  kTrueCsi = 4,       ///< noiseless ground-truth CSI (emulator-side aging)
  kTrueDistance = 5,  ///< ground-truth AP-client distance (never an input)
  kCsiFeedback = 6,   ///< measured CSI from beamforming sounding exchanges
  kScanRssi = 7,      ///< fresh client-side scan RSSI (roaming scans)
  kFeedbackOk = 8,    ///< 1/0: did the acked frame's PHY feedback survive
};

inline constexpr std::size_t kNumStreamKinds = 9;

/// Record flag: the read happened but returned nothing (dropped export).
inline constexpr std::uint8_t kFlagAbsent = 1;

constexpr std::uint32_t stream_bit(StreamKind k) {
  return 1u << static_cast<unsigned>(k);
}

/// Matrix-payload kinds carry a full CsiMatrix; everything else one f64.
constexpr bool is_matrix_kind(StreamKind k) {
  return k == StreamKind::kCsi || k == StreamKind::kTrueCsi ||
         k == StreamKind::kCsiFeedback;
}

std::string_view to_string(StreamKind k);

/// Fixed-size file header: link metadata and geometry shared by all records.
struct TraceHeader {
  std::uint32_t stream_mask = 0;
  std::uint32_t n_units = 1;
  std::uint32_t n_tx = 0;
  std::uint32_t n_rx = 0;
  std::uint32_t n_sc = 0;
  double carrier_hz = 0.0;
  double nominal_period_s = 0.0;

  bool has(StreamKind k) const { return (stream_mask & stream_bit(k)) != 0; }
  std::size_t csi_values() const {
    return static_cast<std::size_t>(n_tx) * n_rx * n_sc;
  }
};

/// One decoded record. `csi` is populated only for matrix kinds, `scalar`
/// only for scalar kinds; neither is meaningful when `present` is false.
struct TraceRecord {
  StreamKind kind = StreamKind::kCsi;
  std::uint32_t unit = 0;
  double t = 0.0;
  double scalar = 0.0;
  bool present = true;
  CsiMatrix csi;
};

/// Typed trace error: every malformed-input and misuse condition carries a
/// code, so tests and gates can assert the *reason*, not just "it threw".
/// Derives std::runtime_error so pre-existing catch sites keep working.
class TraceError : public std::runtime_error {
 public:
  enum class Code {
    kOpenFailed,       ///< file cannot be opened / created
    kBadMagic,         ///< not a MWTR trace (includes legacy v1 files)
    kBadVersion,       ///< MWTR family but an unknown format version
    kTruncated,        ///< EOF inside the header, a chunk, or a record
    kNonMonotoneTime,  ///< timestamps regress within a (kind, unit) stream
    kBadGeometry,      ///< header geometry invalid or matrix dims mismatch
    kCorruptRecord,    ///< undecodable record (kind/unit/size out of range)
    kMissingStream,    ///< consumer requires a stream the trace lacks
    kTimestampSkew,    ///< strict replay: query times diverge from the log
    kWriteFailed,      ///< I/O error while writing
    kBadConfig,        ///< replay configured with an unusable tolerance
  };

  TraceError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

std::string_view to_string(TraceError::Code c);

}  // namespace mobiwlan::trace
