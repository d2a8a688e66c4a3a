#include "util/flatjson.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

namespace mobiwlan {

FlatJsonError::FlatJsonError(Code code, std::string key, std::size_t offset,
                             std::string detail)
    : std::runtime_error(detail + (key.empty() ? "" : " (key \"" + key + "\")") +
                         " at byte " + std::to_string(offset)),
      code_(code),
      key_(std::move(key)),
      offset_(offset),
      detail_(std::move(detail)) {}

namespace {

using Code = FlatJsonError::Code;

/// Recursive-descent reader for exactly the flat shape: one object whose
/// members are numbers, strings, or one level of such members.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::map<std::string, double> document() {
    std::map<std::string, double> out;
    object(&out);
    skip_ws();
    if (i_ != s_.size()) fail(Code::kSyntax, "", "trailing bytes after object");
    return out;
  }

 private:
  [[noreturn]] void fail(Code code, const std::string& key,
                         const char* detail) const {
    throw FlatJsonError(code, key, i_, detail);
  }

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }

  void expect(char c, const std::string& key, const char* detail) {
    skip_ws();
    if (!at(c)) fail(Code::kSyntax, key, detail);
    ++i_;
  }

  /// A string starting at its opening quote; backslash escapes keep the
  /// escaped byte (keys are plain ASCII metric ids).
  std::string string(Code unterminated, const std::string& key) {
    ++i_;
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      if (i_ < s_.size()) out += s_[i_++];
    }
    if (i_ >= s_.size())
      fail(unterminated, unterminated == Code::kUnterminatedKey ? out : key,
           unterminated == Code::kUnterminatedKey ? "unterminated key"
                                                  : "unterminated string");
    ++i_;
    return out;
  }

  /// A number in the JSON grammar: optional '-', digits, optional fraction
  /// and exponent. strtod alone would also take "inf", "nan", hex and '+'.
  double number(const std::string& key) {
    const std::size_t start = i_;
    auto digits = [&] {
      const std::size_t from = i_;
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
        ++i_;
      return i_ > from;
    };
    if (at('-')) ++i_;
    bool ok = digits();
    if (ok && at('.')) {
      ++i_;
      ok = digits();
    }
    if (ok && (at('e') || at('E'))) {
      ++i_;
      if (at('+') || at('-')) ++i_;
      ok = digits();
    }
    // A valid prefix glued to more number-ish bytes ("0x10", "1.5.2").
    if (ok && i_ < s_.size() &&
        (std::isalnum(static_cast<unsigned char>(s_[i_])) || at('.') ||
         at('+') || at('-')))
      ok = false;
    if (!ok) {
      i_ = start;
      fail(Code::kBadValue, key, "value is not a number, string or object");
    }
    return std::strtod(s_.c_str() + start, nullptr);
  }

  /// One object. Top level (`out` non-null) keeps numeric members; a
  /// nested object is validated and discarded.
  void object(std::map<std::string, double>* out) {
    expect('{', "", "expected '{'");
    skip_ws();
    if (at('}')) {
      ++i_;
      return;
    }
    std::set<std::string> keys;
    for (;;) {
      skip_ws();
      if (!at('"')) fail(Code::kSyntax, "", "expected a key");
      const std::size_t key_at = i_;
      const std::string key = string(Code::kUnterminatedKey, "");
      if (!keys.insert(key).second)
        throw FlatJsonError(Code::kDuplicateKey, key, key_at, "duplicate key");
      expect(':', key, "expected ':' after key");
      skip_ws();
      if (at('"')) {
        string(Code::kBadValue, key);
      } else if (at('{') && out) {
        object(nullptr);
      } else {
        const double v = number(key);
        if (out) (*out)[key] = v;
      }
      skip_ws();
      if (at(',')) {
        ++i_;
        continue;
      }
      expect('}', key, "expected ',' or '}'");
      return;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

std::map<std::string, double> parse_flat_json_numbers(const std::string& text) {
  return Parser(text).document();
}

std::map<std::string, double> load_flat_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parse_flat_json_numbers(ss.str());
  } catch (const FlatJsonError& e) {
    throw FlatJsonError(e.code(), e.key(), e.offset(), path + ": " + e.detail());
  }
}

}  // namespace mobiwlan
