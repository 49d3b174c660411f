// Minimal CSV reading/writing for CDR import/export.
//
// The CDR schema is flat and numeric, so this is intentionally a small
// RFC-4180 subset: comma separator, double-quote escaping, no embedded
// newlines inside quoted fields on read (CDR exports never contain them).
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ccms::util {

/// Thrown on malformed input or I/O failure.
class CsvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Split one CSV line into views of its fields, honouring double-quote
/// escaping (`"a,b"` is one field; `""` inside quotes is a literal quote)
/// and dropping every `\r` outside quotes (CRLF endings). `fields` is
/// cleared first. A field with no quote and no `\r` is a view into `line`;
/// only a field holding one is rewritten, into `scratch`, which is cleared
/// and reserved to `line`'s length so its views stay valid until the next
/// call. Throws CsvError on an unterminated quote.
void split_csv_fields(std::string_view line,
                      std::vector<std::string_view>& fields,
                      std::string& scratch);

/// split_csv_fields' fields as owned strings.
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Quote a field if it contains comma/quote, doubling interior quotes.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Streaming CSV writer.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Throws CsvError on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row; fields are escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Flushes and closes. Called by the destructor; call explicitly to
  /// observe errors.
  void close();

 private:
  std::ofstream out_;
  std::string path_;
};

/// Streaming CSV reader.
class CsvReader {
 public:
  /// Opens `path` for reading. Throws CsvError on failure.
  explicit CsvReader(const std::string& path);

  /// Reads the next row into `fields`. Returns false at EOF.
  bool read_row(std::vector<std::string>& fields);

 private:
  std::ifstream in_;
  std::string path_;
  std::string line_;
};

/// Base-10 integer with strtoll's grammar: leading C-locale whitespace,
/// one optional `+` or `-`, then one or more digits and nothing after.
/// Throws CsvError on anything else and on out-of-range values. Parses in
/// place, without copying the field.
[[nodiscard]] std::int64_t parse_i64(std::string_view s);

/// strtod with full-string validation; throws CsvError on garbage.
[[nodiscard]] double parse_f64(std::string_view s);

}  // namespace ccms::util
