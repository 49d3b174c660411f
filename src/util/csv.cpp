#include "util/csv.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <system_error>

namespace ccms::util {

void split_csv_fields(std::string_view line,
                      std::vector<std::string_view>& fields,
                      std::string& scratch) {
  fields.clear();
  scratch.clear();
  // A rewrite only drops characters, so the rewritten fields of one line
  // fit in its length and scratch never reallocates under a view.
  scratch.reserve(line.size());
  const char* const data = line.data();
  const std::size_t n = line.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t begin = i;
    while (i < n && data[i] != ',' && data[i] != '"' && data[i] != '\r') ++i;
    if (i == n || data[i] == ',') {
      fields.emplace_back(data + begin, i - begin);
    } else {
      // A quote or a carriage return: the field is rewritten from here on.
      const std::size_t from = scratch.size();
      scratch.append(data + begin, i - begin);
      bool in_quotes = false;
      for (; i < n; ++i) {
        const char c = data[i];
        if (in_quotes) {
          if (c != '"') {
            scratch.push_back(c);
          } else if (i + 1 < n && data[i + 1] == '"') {
            scratch.push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == ',') {
          break;
        } else if (c != '\r') {  // tolerate CRLF
          scratch.push_back(c);
        }
      }
      if (in_quotes) throw CsvError("unterminated quote in CSV line");
      fields.emplace_back(scratch.data() + from, scratch.size() - from);
    }
    if (i == n) return;
    ++i;  // past the comma
  }
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string_view> views;
  std::string scratch;
  split_csv_fields(line, views, scratch);
  return std::vector<std::string>(views.begin(), views.end());
}

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path), path_(path) {
  if (!out_) throw CsvError("cannot open for writing: " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_.put(',');
    out_ << csv_escape(fields[i]);
  }
  out_.put('\n');
  if (!out_) throw CsvError("write failed: " + path_);
}

void CsvWriter::close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_) throw CsvError("flush failed: " + path_);
    out_.close();
  }
}

CsvReader::CsvReader(const std::string& path) : in_(path), path_(path) {
  if (!in_) throw CsvError("cannot open for reading: " + path);
}

bool CsvReader::read_row(std::vector<std::string>& fields) {
  if (!std::getline(in_, line_)) return false;
  fields = split_csv_line(line_);
  return true;
}

std::int64_t parse_i64(std::string_view s) {
  if (s.empty()) throw CsvError("empty integer field");
  const auto bad = [s] {
    return CsvError("bad integer field: " + std::string(s));
  };
  // strtoll's base-10 grammar: C-locale isspace, then one sign, then digits.
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || (s[i] >= '\t' && s[i] <= '\r'))) ++i;
  const std::size_t digits = i < s.size() && (s[i] == '+' || s[i] == '-')
                                 ? i + 1
                                 : i;
  if (digits == s.size() || s[digits] < '0' || s[digits] > '9') throw bad();
  if (s[i] == '+') i = digits;  // from_chars takes a minus but no plus
  std::int64_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data() + i, end, v);
  if (ec != std::errc{} || ptr != end) throw bad();
  return v;
}

double parse_f64(std::string_view s) {
  if (s.empty()) throw CsvError("empty float field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    throw CsvError("bad float field: " + buf);
  }
  return v;
}

}  // namespace ccms::util
