// CCDR2: the binary CDR format, columnar and out of core.
//
// At the paper's scale (1M cars, 1.1B connections) a row-oriented array of
// records would be a ~26 GB allocation before the study even starts. CCDR2
// stores the records struct-of-arrays in compressed blocks so the batch
// study can stream them with bounded memory:
//
//   header  | block payloads ... | block index | index crc32
//
//   header       := "CCDR2\0\0\0" | u64 record_count | u32 fleet_size |
//                   i32 study_days | u32 block_count | u32 cell_universe |
//                   u64 index_offset
//   block payload:= car column | cell column | start column | dur column
//   block desc   := offset, per-column byte sizes, record count,
//                   first/last car, min/max start, crc32(payload)
//
// Records are sorted by (car, start, cell, duration) — Dataset::finalize's
// order — and blocks are *car-aligned*: a car's records never straddle a
// block boundary, so per-car sweeps decode one block at a time and chunk
// merges in the executor stay partition-independent. Column encodings
// exploit the sort: car ids are delta+varint (deltas >= 0), start times are
// zigzag-delta+varint (ascending within a car, one negative delta at each
// car boundary), cells are varint, durations zigzag-varint. Per-block
// min/max footers support skip-scans over time ranges.
//
// Corruption follows the §7 Strict/Lenient + IngestReport discipline
// (DESIGN.md §7): a damaged header is kBadHeader, a chopped file or index
// is kTruncatedPayload, a payload whose CRC32 does not match is
// kChecksumMismatch — strict throws at the first fault, lenient drops the
// damaged block, keeps counting, and returns the survivors. Header, index
// and block faults are booked by cdr::RecordScreen::fault, and decoded
// records are screened by the same RecordScreen the CSV reader uses
// (cdr/integrity.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/dataset.h"
#include "cdr/integrity.h"

namespace ccms::cdr {

/// Target records per block. Blocks grow past this only when a single car
/// has more records than the target (a car never straddles blocks).
inline constexpr std::size_t kColumnarBlockRecords = std::size_t{1} << 18;

/// One block's descriptor, as stored in the trailing index.
struct ColumnarBlockDesc {
  std::uint64_t offset = 0;         ///< payload start, absolute file offset
  std::int64_t min_start = 0;       ///< skip-scan footer
  std::int64_t max_start = 0;
  std::uint32_t payload_bytes = 0;  ///< sum of col_bytes
  std::uint32_t records = 0;
  std::uint32_t first_car = 0;
  std::uint32_t last_car = 0;
  std::uint32_t col_bytes[4] = {};  ///< car, cell, start, duration segments
  std::uint32_t crc32 = 0;          ///< over the payload bytes
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ColumnarBlockDesc) == 64);

/// A decoded block, struct-of-arrays. Reused as scratch across blocks so
/// the streaming sweep allocates once.
struct ColumnBlock {
  std::vector<std::uint32_t> car;
  std::vector<std::uint32_t> cell;
  std::vector<std::int64_t> start;
  std::vector<std::int32_t> duration;

  [[nodiscard]] std::size_t size() const { return car.size(); }
  void clear();
};

/// Streaming CCDR2 writer. Feed records in (car, start, cell, duration)
/// order — Dataset::finalize's order — via add(); finish() writes the index
/// and patches the header. The stream must be seekable (file or
/// stringstream).
class ColumnarWriter {
 public:
  ColumnarWriter(std::ostream& out, std::uint32_t fleet_size, int study_days,
                 std::size_t block_records = kColumnarBlockRecords);

  /// Appends one record. Must be called in non-decreasing ByCarThenStart
  /// order; throws util::CsvError otherwise (an unsorted file would silently
  /// break every downstream sweep).
  void add(const Connection& c);

  /// Flushes the trailing block, writes the index and patches the header.
  /// Returns the total records written. Call exactly once.
  std::uint64_t finish();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  void flush_block();

  std::ostream& out_;
  std::uint32_t fleet_size_;
  int study_days_;
  std::size_t block_records_;
  std::uint32_t cell_universe_ = 0;

  std::vector<Connection> pending_;
  std::vector<ColumnarBlockDesc> index_;
  std::uint64_t records_ = 0;
  std::uint64_t offset_ = 0;  ///< current payload write offset
  Connection last_{};
  bool has_last_ = false;
  bool finished_ = false;
  std::string scratch_;  ///< reused encode buffer
};

/// Writes a finalized dataset as CCDR2. Throws util::CsvError on I/O
/// failure.
void write_columnar(const Dataset& dataset, const std::string& path);

/// In-memory variant: the exact bytes write_columnar would produce.
[[nodiscard]] std::string write_columnar_buffer(const Dataset& dataset);

/// An open CCDR2 file: mmap-backed (open) or borrowing a caller buffer
/// (from_buffer). Header and index are validated up front per the
/// Strict/Lenient discipline; block payloads are CRC-checked lazily at
/// decode time, so a streaming sweep reads every byte exactly once.
class ColumnarFile {
 public:
  /// mmaps `path` read-only and validates header + index. Strict mode
  /// throws util::CsvError at the first structural fault; lenient mode
  /// records faults in `report` and degrades (a damaged index drops to the
  /// blocks that validate). I/O failures always throw.
  [[nodiscard]] static ColumnarFile open(const std::string& path,
                                         const IngestOptions& options,
                                         IngestReport& report);

  /// Same, over a caller-owned buffer (must outlive the ColumnarFile).
  [[nodiscard]] static ColumnarFile from_buffer(
      std::string_view bytes, const IngestOptions& options,
      IngestReport& report, const std::string& label = "<memory>");

  ColumnarFile(ColumnarFile&&) noexcept;
  ColumnarFile& operator=(ColumnarFile&&) noexcept;
  ColumnarFile(const ColumnarFile&) = delete;
  ColumnarFile& operator=(const ColumnarFile&) = delete;
  ~ColumnarFile();

  [[nodiscard]] std::uint64_t record_count() const { return record_count_; }
  [[nodiscard]] std::uint32_t fleet_size() const { return fleet_size_; }
  [[nodiscard]] int study_days() const { return study_days_; }
  /// Exclusive upper bound on cell ids present (max cell + 1; 0 if empty).
  [[nodiscard]] std::uint32_t cell_universe() const { return cell_universe_; }
  [[nodiscard]] const std::vector<ColumnarBlockDesc>& blocks() const {
    return index_;
  }

  enum class DecodeStatus {
    kOk,
    kChecksumMismatch,  ///< payload CRC32 does not match the descriptor
    kMalformed,         ///< varint stream truncated or value out of range
  };

  /// Decodes block `b` into `out` (cleared first, capacity reused). On
  /// failure `out` is cleared; the caller routes the status through its
  /// fault accounting.
  [[nodiscard]] DecodeStatus decode_block(std::size_t b,
                                          ColumnBlock& out) const;

  /// Advises the kernel the mapping will be read once, sequentially.
  void advise_sequential() const;

  /// Drops the page-cache pages of blocks [first, last) — called by the
  /// streaming sweep after consuming a chunk so peak RSS stays bounded by
  /// the in-flight window, not the file size. No-op for buffer-backed
  /// files.
  void drop_consumed(std::size_t first_block, std::size_t last_block) const;

 private:
  ColumnarFile() = default;
  static ColumnarFile parse(std::span<const std::uint8_t> bytes,
                            const IngestOptions& options, IngestReport& report,
                            const std::string& label);

  std::span<const std::uint8_t> bytes_;
  std::vector<ColumnarBlockDesc> index_;
  std::uint64_t record_count_ = 0;
  std::uint32_t fleet_size_ = 0;
  int study_days_ = 0;
  std::uint32_t cell_universe_ = 0;

  // mmap ownership (open() only; empty for from_buffer()).
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  int fd_ = -1;
};

/// Enters block `b` of `file` through `screen`: resets the screen at the
/// block boundary and decodes the block into `out`. Blocks are car-aligned,
/// so neither a duplicate pair nor a same-car order inversion can span one;
/// the reset is what lets block chunks screen independently and still merge
/// to exactly the sequential accounting. A block that fails its CRC or its
/// decode is lost whole but stays counted: its declared records enter
/// rows_read and records_dropped, so the ingest partition (rows == accepted
/// + dropped + deduped) still tiles, and the fault is booked through the
/// screen (strict mode throws). Returns false for a lost block. Used by
/// read_columnar's materializer and run_study_columnar's chunks alike.
[[nodiscard]] bool enter_block(const ColumnarFile& file, std::size_t b,
                               ColumnBlock& out, RecordScreen& screen);

/// Reads a CCDR2 file into an in-memory Dataset, honouring `options` and
/// filling `report`: the §7 RecordScreen (value ranges, order, duplicates)
/// on top of the block-level CRC discipline. The returned dataset is
/// finalized.
[[nodiscard]] Dataset read_columnar(const std::string& path,
                                    const IngestOptions& options,
                                    IngestReport& report);

/// In-memory variant of read_columnar.
[[nodiscard]] Dataset read_columnar_buffer(
    std::string_view bytes, const IngestOptions& options, IngestReport& report,
    const std::string& label = "<memory>");

/// The tail of read_columnar over an already-open file: screens every block
/// through `options` / `report` and returns the finalized Dataset. For
/// callers (run_study_columnar on a header without a day count) that hold
/// the ColumnarFile and its open-time report themselves.
[[nodiscard]] Dataset materialize_columnar(const ColumnarFile& file,
                                           const IngestOptions& options,
                                           IngestReport& report,
                                           const std::string& label);

}  // namespace ccms::cdr
