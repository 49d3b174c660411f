// Whole-file reads and writes: the one copy of "open, slurp or write, check
// the stream" that the CSV reader, the CCDR2 fallback, checkpoints, replay
// bundles and JSON reports share.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace ccms::util {

/// The bytes of the file at `path`, or nullopt when it cannot be opened or
/// read. Callers decide whether that is an error, a booked fault or a
/// soft failure.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Writes `bytes` to `path` in binary mode, truncating. Throws CsvError
/// ("cannot open for writing: <path>" or "write failed: <path>").
void write_file(const std::string& path, std::string_view bytes);

}  // namespace ccms::util
