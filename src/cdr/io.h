// CDR CSV import/export (`car,cell,start_s,duration_s` with a header row),
// for interoperability with the usual trace-analysis tooling. The binary
// format for large studies is CCDR2 (cdr/columnar.h).
//
// CSV round-trips the Dataset exactly, including the declared fleet size and
// study length (carried in the header comment), so an exported study
// re-imports with identical percentages.
//
// Ingest is hardened (see cdr/integrity.h): every reader takes IngestOptions
// and fills an IngestReport. Parsed rows are screened and every fault is
// booked by cdr::RecordScreen, the same screen the CCDR2 reader uses.
// ParseMode::kStrict throws util::CsvError at the first fault with its byte
// offset; ParseMode::kLenient quarantines faulty records, with their raw
// rows, and never throws on record-level damage. Both modes tolerate a
// UTF-8 BOM, CRLF line endings and blank lines.
#pragma once

#include <string>
#include <string_view>

#include "cdr/dataset.h"
#include "cdr/integrity.h"

namespace ccms::cdr {

/// Writes `dataset` as CSV. Throws util::CsvError on I/O failure.
void write_csv(const Dataset& dataset, const std::string& path);

/// In-memory variant: the exact bytes write_csv would produce.
[[nodiscard]] std::string write_csv_text(const Dataset& dataset);

/// Reads a CSV produced by write_csv (or any file with the same columns),
/// honouring `options`; fills `report`. The returned dataset is finalized.
/// Strict mode throws util::CsvError at the first fault (with byte offset);
/// lenient mode quarantines and returns the surviving records.
[[nodiscard]] Dataset read_csv(const std::string& path,
                               const IngestOptions& options,
                               IngestReport& report);

/// In-memory variant of read_csv; `label` names the buffer in errors.
[[nodiscard]] Dataset read_csv_text(std::string_view text,
                                    const IngestOptions& options,
                                    IngestReport& report,
                                    const std::string& label = "<memory>");

/// Legacy convenience: strict structural parsing only (no order/duplicate/
/// value screening), as the original importer behaved. Throws util::CsvError
/// on parse errors.
[[nodiscard]] Dataset read_csv(const std::string& path);

}  // namespace ccms::cdr
