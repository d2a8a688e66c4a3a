#include "trace/import.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "trace/trace_io.hpp"

namespace mobiwlan::trace {

namespace {

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) out.push_back(field);
  if (!line.empty() && line.back() == ',') out.emplace_back();
  return out;
}

std::string strip(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::optional<StreamKind> kind_from_name(const std::string& name) {
  for (std::size_t k = 0; k < kNumStreamKinds; ++k) {
    const auto kind = static_cast<StreamKind>(k);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

double parse_f64(const std::string& field, std::size_t line_no,
                 const char* what) {
  const std::string s = strip(field);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "csv line " + std::to_string(line_no) + ": bad " + what +
                         " '" + s + "'");
  }
  return v;
}

/// parse_f64 for a recorded value: strtod also reads nan, inf and -inf,
/// which a replay would hand to the simulators as a channel reading.
double parse_finite(const std::string& field, std::size_t line_no,
                    const char* what) {
  const double v = parse_f64(field, line_no, what);
  if (!std::isfinite(v)) {
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "csv line " + std::to_string(line_no) + ": non-finite " +
                         what + " '" + strip(field) + "'");
  }
  return v;
}

std::uint32_t parse_u32(const std::string& field, std::size_t line_no,
                        const char* what) {
  const double v = parse_f64(field, line_no, what);
  // The range test comes first: converting NaN or a value outside
  // [0, 2^32) to uint32_t is undefined.
  if (!(v >= 0.0 && v <= static_cast<double>(UINT32_MAX)) ||
      v != static_cast<double>(static_cast<std::uint32_t>(v))) {
    throw TraceError(TraceError::Code::kCorruptRecord,
                     "csv line " + std::to_string(line_no) + ": bad " + what);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::uint64_t import_csv(const std::string& csv_path,
                         const std::string& out_path) {
  std::ifstream in(csv_path);
  if (!in) {
    throw TraceError(TraceError::Code::kOpenFailed,
                     "cannot open csv trace: " + csv_path);
  }

  TraceHeader header;
  header.n_units = 1;
  bool saw_magic = false;
  bool saw_streams = false;
  bool in_data = false;

  std::unique_ptr<TraceWriter> writer;
  CsiMatrix csi;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = strip(line);
    if (text.empty() || text[0] == '#') continue;
    const std::vector<std::string> f = split_csv(text);

    if (!saw_magic) {
      if (f.size() != 2 || strip(f[0]) != "mwtr-csv") {
        throw TraceError(TraceError::Code::kBadMagic,
                         "csv line " + std::to_string(line_no) +
                             ": expected 'mwtr-csv,<version>' directive");
      }
      if (parse_u32(f[1], line_no, "version") != kFormatVersion) {
        throw TraceError(TraceError::Code::kBadVersion,
                         "csv trace declares unsupported version " +
                             strip(f[1]));
      }
      saw_magic = true;
      continue;
    }

    if (!in_data) {
      const std::string key = strip(f[0]);
      if (key == "data") {
        if (!saw_streams) {
          throw TraceError(TraceError::Code::kMissingStream,
                           "csv trace declares no 'streams' directive");
        }
        writer = std::make_unique<TraceWriter>(out_path, header);
        in_data = true;
      } else if (key == "streams") {
        for (std::size_t i = 1; i < f.size(); ++i) {
          const auto kind = kind_from_name(strip(f[i]));
          if (!kind) {
            throw TraceError(TraceError::Code::kCorruptRecord,
                             "csv line " + std::to_string(line_no) +
                                 ": unknown stream kind '" + strip(f[i]) +
                                 "'");
          }
          header.stream_mask |= stream_bit(*kind);
        }
        saw_streams = header.stream_mask != 0;
      } else if (key == "units" && f.size() == 2) {
        header.n_units = parse_u32(f[1], line_no, "units");
      } else if (key == "geometry" && f.size() == 4) {
        header.n_tx = parse_u32(f[1], line_no, "n_tx");
        header.n_rx = parse_u32(f[2], line_no, "n_rx");
        header.n_sc = parse_u32(f[3], line_no, "n_sc");
      } else if (key == "carrier_hz" && f.size() == 2) {
        header.carrier_hz = parse_f64(f[1], line_no, "carrier_hz");
      } else if (key == "period_s" && f.size() == 2) {
        header.nominal_period_s = parse_f64(f[1], line_no, "period_s");
      } else {
        throw TraceError(TraceError::Code::kCorruptRecord,
                         "csv line " + std::to_string(line_no) +
                             ": unknown directive '" + key + "'");
      }
      continue;
    }

    // Data row: kind,unit,t,values...
    if (f.size() < 4) {
      throw TraceError(TraceError::Code::kCorruptRecord,
                       "csv line " + std::to_string(line_no) +
                           ": data row needs kind,unit,t,value...");
    }
    const auto kind = kind_from_name(strip(f[0]));
    if (!kind) {
      throw TraceError(TraceError::Code::kCorruptRecord,
                       "csv line " + std::to_string(line_no) +
                           ": unknown stream kind '" + strip(f[0]) + "'");
    }
    const std::uint32_t unit = parse_u32(f[1], line_no, "unit");
    const double t = parse_f64(f[2], line_no, "timestamp");

    if (is_matrix_kind(*kind)) {
      const std::size_t want = 2 * header.csi_values();
      if (f.size() - 3 != want) {
        throw TraceError(TraceError::Code::kCorruptRecord,
                         "csv line " + std::to_string(line_no) + ": " +
                             std::string(to_string(*kind)) + " row carries " +
                             std::to_string(f.size() - 3) + " values, needs " +
                             std::to_string(want));
      }
      csi.resize_for_overwrite(header.n_tx, header.n_rx, header.n_sc);
      auto& raw = csi.raw();
      for (std::size_t i = 0; i < header.csi_values(); ++i) {
        raw[i] = {parse_finite(f[3 + 2 * i], line_no, "re"),
                  parse_finite(f[4 + 2 * i], line_no, "im")};
      }
      writer->put_csi(*kind, unit, t, csi);
    } else {
      if (f.size() != 4) {
        throw TraceError(TraceError::Code::kCorruptRecord,
                         "csv line " + std::to_string(line_no) +
                             ": scalar row carries more than one value");
      }
      writer->put_scalar(*kind, unit, t, parse_finite(f[3], line_no, "value"));
    }
  }

  if (!saw_magic) {
    throw TraceError(TraceError::Code::kBadMagic,
                     "csv trace is empty: " + csv_path);
  }
  if (!in_data) {
    throw TraceError(TraceError::Code::kTruncated,
                     "csv trace has no 'data' section: " + csv_path);
  }
  const std::uint64_t n = writer->records_written();
  writer->close();
  return n;
}

}  // namespace mobiwlan::trace
