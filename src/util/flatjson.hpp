// flatjson.hpp — strict reader for the flat `"key": number` JSON documents
// the bench and CI tooling exchange.
//
// BENCH_*.json reports and the ci/*.json baselines are all written as a
// single JSON object whose values are numbers. Strings are permitted (the
// perf baseline's comments, a report's "bench" name) and ignored. One
// nested object is permitted per key — the reports' single-line
// `"timing": {"wall_s": …}` — and is parsed and validated, but its members
// never enter the result: wall-clock data must not masquerade as a metric
// or a bound. Anything else is rejected with a FlatJsonError: a baseline
// whose bound cannot be read must fail loudly, not vanish from the gate.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

namespace mobiwlan {

/// A malformed flat-JSON document: what went wrong, the key it concerns
/// (empty when the error precedes any key), and the byte offset into the
/// document at which it was detected.
class FlatJsonError : public std::runtime_error {
 public:
  enum class Code {
    kSyntax,            ///< structural error: missing brace, colon or comma
    kUnterminatedKey,   ///< a key (or string value) runs off the end
    kBadValue,          ///< value is not a number, string or flat object
    kDuplicateKey,      ///< the same key appears twice
  };

  FlatJsonError(Code code, std::string key, std::size_t offset,
                std::string detail);

  Code code() const { return code_; }
  const std::string& key() const { return key_; }
  std::size_t offset() const { return offset_; }
  /// The message without the key/offset suffix what() appends.
  const std::string& detail() const { return detail_; }

 private:
  Code code_;
  std::string key_;
  std::size_t offset_;
  std::string detail_;
};

/// Parses one flat JSON object and returns its numeric members in key-sorted
/// order. String members are validated and skipped; a nested object (one
/// level, number/string members only) is validated and skipped. Throws
/// FlatJsonError on anything else.
std::map<std::string, double> parse_flat_json_numbers(const std::string& text);

/// parse_flat_json_numbers over the contents of `path`; an empty map if the
/// file cannot be read. Parse errors throw, prefixed with `path`.
std::map<std::string, double> load_flat_json(const std::string& path);

}  // namespace mobiwlan
