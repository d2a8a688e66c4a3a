// Tests for the strict flat-JSON loader and the empty-baseline rule of the
// gated-suite check.
#include "util/flatjson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fidelity/fidelity.hpp"

namespace mobiwlan {
namespace {

using Code = FlatJsonError::Code;

/// Parses `text`, expecting a FlatJsonError; returns it.
FlatJsonError parse_error(const std::string& text) {
  try {
    parse_flat_json_numbers(text);
  } catch (const FlatJsonError& e) {
    return e;
  }
  ADD_FAILURE() << "no error for: " << text;
  return FlatJsonError(Code::kSyntax, "", 0, "none");
}

TEST(FlatJsonTest, ReadsNumbersAndSkipsStrings) {
  const auto m = parse_flat_json_numbers(
      "{\n  \"bench\": \"scale\",\n  \"a.min\": 0.5,\n  \"b\": -3e2,\n"
      "  \"c\": 7\n}\n");
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("a.min"), 0.5);
  EXPECT_EQ(m.at("b"), -300.0);
  EXPECT_EQ(m.at("c"), 7.0);
}

TEST(FlatJsonTest, EmptyObjectIsEmptyMap) {
  EXPECT_TRUE(parse_flat_json_numbers(" { } ").empty());
}

TEST(FlatJsonTest, TimingObjectIsParsedButNotMerged) {
  const auto m = parse_flat_json_numbers(
      "{\"seed\": 1, \"timing\": {\"wall_s\": 8.5, \"note\": \"x\"}}");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.count("wall_s"), 0u);
  EXPECT_EQ(m.count("timing"), 0u);
}

TEST(FlatJsonTest, MalformedValueIsRejectedWithKeyAndOffset) {
  const std::string text = "{\"seed\": 1, \"x.min\": abc}";
  const FlatJsonError e = parse_error(text);
  EXPECT_EQ(e.code(), Code::kBadValue);
  EXPECT_EQ(e.key(), "x.min");
  EXPECT_EQ(e.offset(), text.find("abc"));
  EXPECT_NE(std::string(e.what()).find("x.min"), std::string::npos);
}

TEST(FlatJsonTest, NonJsonNumberSpellingsAreRejected) {
  for (const char* v : {"nan", "inf", "+1", "0x10", "-", "1.", ".5", "1e",
                        "null", "true", "[1]"}) {
    const FlatJsonError e =
        parse_error(std::string("{\"k\": ") + v + "}");
    EXPECT_EQ(e.code(), Code::kBadValue) << v;
    EXPECT_EQ(e.key(), "k") << v;
  }
}

TEST(FlatJsonTest, DuplicateKeyIsRejected) {
  const std::string text = "{\"a.max\": 1, \"b\": 2, \"a.max\": 3}";
  const FlatJsonError e = parse_error(text);
  EXPECT_EQ(e.code(), Code::kDuplicateKey);
  EXPECT_EQ(e.key(), "a.max");
  EXPECT_EQ(e.offset(), text.rfind("\"a.max\""));
}

TEST(FlatJsonTest, DuplicateKeyInsideNestedObjectIsRejected) {
  EXPECT_EQ(parse_error("{\"timing\": {\"w\": 1, \"w\": 2}}").code(),
            Code::kDuplicateKey);
}

TEST(FlatJsonTest, UnterminatedKeyIsRejected) {
  const FlatJsonError e = parse_error("{\"a\": 1, \"b.mi");
  EXPECT_EQ(e.code(), Code::kUnterminatedKey);
  EXPECT_EQ(e.key(), "b.mi");
}

TEST(FlatJsonTest, StructuralErrorsAreRejected) {
  for (const char* text : {"", "[]", "{\"a\" 1}", "{\"a\": 1 \"b\": 2}",
                           "{\"a\": 1", "{\"a\": 1} x", "{,}",
                           "{\"t\": {\"u\": {\"v\": 1}}}"}) {
    bool threw = false;
    try {
      parse_flat_json_numbers(text);
    } catch (const FlatJsonError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << text;
  }
}

TEST(FlatJsonTest, LoadPrefixesPathAndMissingFileIsEmpty) {
  EXPECT_TRUE(load_flat_json("no/such/file.json").empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "flatjson_test_bad.json")
          .string();
  {
    std::ofstream f(path);
    f << "{\"x.min\": abc}";
  }
  try {
    load_flat_json(path);
    ADD_FAILURE() << "no error";
  } catch (const FlatJsonError& e) {
    EXPECT_EQ(e.key(), "x.min");
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::filesystem::remove(path);
}

/// {key, number text} of a `"key": number` line (one optional trailing
/// comma), as the flat-JSON writers emit them; nullopt for any other line.
std::optional<std::pair<std::string, std::string>> number_line(
    std::string line) {
  const char* ws = " \t\n\v\f\r";
  line.erase(line.find_last_not_of(ws) + 1);
  if (!line.empty() && line.back() == ',') line.pop_back();
  const std::size_t open = line.find_first_not_of(ws);
  const std::size_t close = line.find('"', open + 1);
  if (open == std::string::npos || line[open] != '"' || close == open + 1 ||
      close == std::string::npos || line.compare(close + 1, 1, ":") != 0)
    return std::nullopt;
  const std::string value = line.substr(
      std::min(line.find_first_not_of(ws, close + 2), line.size()));
  const std::size_t sign = value.rfind('-', 0) == 0 ? 1 : 0;
  if (value.size() <= sign ||
      !std::isdigit(static_cast<unsigned char>(value[sign])) ||
      value.find_first_not_of("0123456789.eE+-") != std::string::npos)
    return std::nullopt;
  return std::make_pair(line.substr(open + 1, close - open - 1), value);
}

/// Every committed baseline and BENCH report loads, and yields exactly the
/// `"key": number` lines its writer emitted — nothing dropped, and nothing
/// from the `"timing"` object leaked in.
TEST(FlatJsonTest, LoadsEveryCommittedDocumentUnchanged) {
  namespace fs = std::filesystem;
  const fs::path root = MOBIWLAN_SOURCE_DIR;
  std::vector<fs::path> files;
  for (const fs::path& dir : {root / "ci", root}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() != ".json") continue;
      if (dir == root && name.rfind("BENCH_", 0) != 0) continue;
      files.push_back(entry.path());
    }
  }
  ASSERT_GE(files.size(), 14u);  // 11 ci/*.json + at least 3 BENCH_*.json

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    std::map<std::string, double> loaded;
    ASSERT_NO_THROW(loaded = load_flat_json(file.string()));
    std::ifstream in(file);
    std::string line;
    std::size_t expected = 0;
    while (std::getline(in, line)) {
      const auto m = number_line(line);
      if (!m) continue;
      ++expected;
      ASSERT_EQ(loaded.count(m->first), 1u) << m->first;
      EXPECT_EQ(loaded.at(m->first), std::strtod(m->second.c_str(), nullptr));
    }
    EXPECT_EQ(loaded.size(), expected);
    EXPECT_EQ(loaded.count("wall_s"), 0u);
  }
}

TEST(FidelityCheckTest, BaselineWithoutBoundsFails) {
  fidelity::FidelityReport rep;
  rep.add("x", 1.0);
  const fidelity::CheckResult none = rep.check({{"seed", 7.0}}, 7);
  EXPECT_TRUE(none.assertions.empty());
  EXPECT_FALSE(none.pass());
  EXPECT_NE(fidelity::render_check(none).find("no <metric>.min"),
            std::string::npos);

  const fidelity::CheckResult one =
      rep.check({{"seed", 7.0}, {"x.min", 0.5}}, 7);
  EXPECT_TRUE(one.pass());
}

}  // namespace
}  // namespace mobiwlan
