// Minimal append-only JSON serialization, shared by the bench emitters
// (BENCH_*.json) and the invariants harness (harness_summary.json, replay
// bundles). Deliberately tiny — no dependency, no reflection — sufficient
// for flat objects with nested arrays of flat objects.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/csv.h"
#include "util/file_io.h"

namespace ccms::util {

/// Append-only JSON object builder. Keys are emitted in call order; values
/// are numbers, strings, bools or raw (pre-serialized) JSON.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double value) {
    std::ostringstream os;
    os.precision(15);  // round-trippable for any value we emit
    os << value;
    return raw(key, os.str());
  }
  JsonObject& add(std::string_view key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& add(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  // std::size_t is covered by the std::uint64_t overload on LP64.
  JsonObject& add(std::string_view key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& add(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  // Without this overload a string literal would convert to bool.
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  /// Nested object / array: pass pre-serialized JSON.
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += json;
    return *this;
  }

  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Serializes a sequence of pre-serialized JSON values as an array.
class JsonArray {
 public:
  JsonArray& push(std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "[" + body_ + "]"; }

 private:
  std::string body_;
};

/// Writes `json` (plus a trailing newline) to `path`, truncating. Throws
/// util::CsvError on I/O failure.
inline void write_json_file(const std::string& path, const std::string& json) {
  write_file(path, json + "\n");
}

}  // namespace ccms::util
