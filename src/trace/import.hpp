// import.hpp — text/CSV import into the binary MWTR trace format.
//
// External captures (e.g. a distributed CSI testbed export, arXiv
// 2412.07588) arrive as text; this converter turns a documented CSV layout
// into a v2 binary trace so every replay consumer works unchanged. The CSV
// is line-oriented, comma-separated; blank lines and lines starting with `#`
// are ignored:
//
//   mwtr-csv,2                     <- required first directive: family, version
//   streams,csi,rssi,tof           <- stream kinds the trace declares
//   units,2                        <- optional, default 1
//   geometry,3,2,16                <- n_tx,n_rx,n_sc; required with CSI kinds
//   carrier_hz,5.785e9             <- optional link metadata
//   period_s,0.05                  <- optional nominal sampling period
//   data                           <- ends the directive section
//   csi,0,0.00,re,im,re,im,...     <- kind,unit,t, then n_tx*n_rx*n_sc
//                                     (re, im) pairs row-major
//   rssi,0,0.00,-41.5              <- scalar kinds carry one value
//
// Rows must be grouped so timestamps are non-decreasing per (kind, unit),
// and every scalar value and CSI re/im entry must be finite (strtod would
// read nan, inf and -inf).
// Every malformed input raises TraceError with the matching code — the same
// hardening contract as the binary reader.
#pragma once

#include <string>

#include "trace/format.hpp"

namespace mobiwlan::trace {

/// Converts `csv_path` into a binary trace at `out_path`. Returns the number
/// of records written. Throws TraceError (kOpenFailed, kBadMagic,
/// kBadVersion, kBadGeometry, kCorruptRecord, kNonMonotoneTime,
/// kMissingStream, kWriteFailed).
std::uint64_t import_csv(const std::string& csv_path,
                         const std::string& out_path);

}  // namespace mobiwlan::trace
