// Ingest integrity accounting: the fault taxonomy, Strict/Lenient parse
// modes, the per-stage IngestReport and the §7 RecordScreen.
//
// The paper's methodology (§3) is built around surviving dirty telemetry:
// exactly-1-hour reporting artifacts are dropped, stuck-modem connections
// are truncated. This header generalises that stance to the *ingest* layer:
// instead of aborting a 90-day study on the first malformed record, lenient
// mode quarantines the record (bounded buffer, per-fault-class counters,
// byte offsets and reasons) and keeps going; strict mode still fails fast
// with the byte offset of the first fault, for pipelines that require
// canonical input. The same taxonomy is used by ccms::faults to *inject*
// faults, so tests can assert detected counters == injected counts.
//
// RecordScreen is the one implementation of the per-record rules: the CSV
// reader's chunks and chunk seams (cdr/io.h), the CCDR2 reader and the
// batch fold's CCDR2 source (cdr/columnar.h) all screen through it.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/record.h"

namespace ccms::cdr {

/// How the ingest layer reacts to a detected fault.
enum class ParseMode {
  kStrict,   ///< throw util::CsvError at the first fault (with byte offset)
  kLenient,  ///< quarantine the record, count it, keep reading
};

/// Every fault the ingest/clean pipeline can detect (and ccms::faults can
/// inject). The first block is detected at ingest; kHourArtifact is the §3
/// cleaning artifact, detected one stage later by cdr::clean.
enum class FaultClass : std::uint8_t {
  kTruncatedLine = 0,  ///< CSV row with fewer than 4 fields
  kBadField,           ///< field that fails numeric parsing / range
  kNegativeDuration,   ///< duration_s < 0 (never valid)
  kOverflowDuration,   ///< duration_s beyond int32 / configured ceiling
  kClockSkew,          ///< start outside [0, horizon)
  kUnknownCell,        ///< cell id outside the declared cell universe
  kDuplicateRecord,    ///< exact copy of the previously accepted record
  kOutOfOrderRecord,   ///< sorts before the previously accepted record
  kBadHeader,          ///< binary: damaged magic / file shorter than header
  kTruncatedPayload,   ///< binary: counts/offsets overrun the bytes present
  kHourArtifact,       ///< §3 exactly-1-hour reporting artifact (clean stage)
  kChecksumMismatch,   ///< framed section whose CRC does not match its bytes
  kCheckpointMismatch, ///< checkpoint version/geometry incompatible with the
                       ///< restoring engine (stream::Checkpoint)
  kCount
};

inline constexpr std::size_t kFaultClassCount =
    static_cast<std::size_t>(FaultClass::kCount);

/// Short stable name ("truncated-line", "clock-skew", ...) for reports.
[[nodiscard]] const char* name(FaultClass fault);

/// True for classes the *ingest* layer detects (everything except
/// kHourArtifact, which cdr::clean accounts for).
[[nodiscard]] constexpr bool detected_at_ingest(FaultClass fault) {
  return fault != FaultClass::kHourArtifact && fault != FaultClass::kCount;
}

/// Knobs of the hardened readers. The value checks are opt-in (0 disables)
/// so that plain round-trip reads accept anything structurally well-formed;
/// pipelines that know their study geometry pass the horizon / cell universe
/// and get clock-skew / unknown-cell screening for free.
struct IngestOptions {
  ParseMode mode = ParseMode::kStrict;

  /// If > 0, records with start outside [0, horizon_s) are clock-skew
  /// faults (typically study_days * 86400).
  std::int64_t horizon_s = 0;
  /// If > 0, records with cell id >= cell_universe are unknown-cell faults.
  std::uint32_t cell_universe = 0;
  /// If > 0, durations above this are overflow faults. Durations that do
  /// not fit int32 are overflow faults regardless.
  std::int64_t max_duration_s = 0;

  /// Treat a record that sorts before its predecessor as kOutOfOrderRecord
  /// (lenient: repaired by the finalize() sort; strict: fatal).
  bool check_order = true;
  /// Treat an exact copy of the previously accepted record as
  /// kDuplicateRecord (lenient: the copy is dropped, counted as repaired;
  /// strict: fatal).
  bool check_duplicates = true;

  /// Max quarantine entries retained (counters keep counting past the cap).
  std::size_t quarantine_cap = 64;

  /// CSV ingest parallelism: 1 = sequential (default), 0 = hardware
  /// concurrency, N = N threads. The produced Dataset and IngestReport are
  /// bitwise identical for every value (see DESIGN.md §10): chunk results
  /// merge in byte-offset order and the cross-chunk order/duplicate checks
  /// are re-applied at chunk seams.
  int threads = 1;

  /// Minimum chunk granularity for parallel CSV ingest, in bytes (chunks
  /// are additionally newline-aligned). 0 = default 1 MiB. Tests shrink
  /// this to force chunk seams on small fixtures.
  std::size_t chunk_bytes = 0;
};

/// One quarantined record: enough to audit the fault post-hoc.
struct QuarantineEntry {
  FaultClass fault = FaultClass::kCount;
  std::uint64_t byte_offset = 0;  ///< offset of the row/record in the input
  std::string reason;             ///< human-readable diagnosis
  std::string raw;                ///< raw CSV row (empty for binary inputs)

  friend bool operator==(const QuarantineEntry&,
                         const QuarantineEntry&) = default;
};

/// Per-ingest integrity accounting. Invariant after a lenient read:
///   rows_read == records_accepted + records_dropped + duplicates (repaired
///   duplicates are neither accepted nor quarantined: the surviving copy
///   already is). Out-of-order records are accepted *and* counted as
///   repaired (Dataset::finalize re-sorts them).
struct IngestReport {
  ParseMode mode = ParseMode::kStrict;
  std::uint64_t bytes_consumed = 0;
  std::uint64_t rows_read = 0;          ///< data rows / records seen
  std::uint64_t records_accepted = 0;
  std::uint64_t records_dropped = 0;    ///< quarantined
  std::uint64_t records_repaired = 0;   ///< deduped + re-sorted
  bool bom_stripped = false;

  std::array<std::uint64_t, kFaultClassCount> counters{};

  std::vector<QuarantineEntry> quarantine;  ///< first quarantine_cap entries
  std::uint64_t quarantine_overflow = 0;    ///< entries past the cap

  [[nodiscard]] std::uint64_t count(FaultClass fault) const {
    return counters[static_cast<std::size_t>(fault)];
  }
  [[nodiscard]] std::uint64_t total_faults() const;
  [[nodiscard]] bool clean() const { return total_faults() == 0; }

  /// Records one detected fault: counts `fault`, then retains its
  /// quarantine entry while fewer than `quarantine_cap` are held and counts
  /// it as overflow otherwise. The caller owns the strict-mode reaction and
  /// whether the fault also drops a record (records_dropped).
  void record_fault(std::size_t quarantine_cap, FaultClass fault,
                    std::uint64_t byte_offset, std::string reason,
                    std::string raw = {});

  /// Folds in the report of the input that directly follows this one's
  /// (the next chunk, block or stage): counters add, quarantines
  /// concatenate in input order, then the global cap is re-applied. Each
  /// side retained a prefix of its own entries, so the first
  /// `quarantine_cap` of the concatenation are exactly the set a single
  /// sequential pass retains, and the overflow count stays exact. `mode`
  /// and `bytes_consumed` describe the whole input and are left alone.
  void merge(IngestReport&& later, std::size_t quarantine_cap);

  /// Keeps the first `quarantine_cap` quarantine entries and counts the
  /// rest as overflow (merge's re-cap; also a restored report's, whose cap
  /// is the restoring engine's).
  void cap_quarantine(std::size_t quarantine_cap);

  friend bool operator==(const IngestReport&, const IngestReport&) = default;
};

/// The §7 record screen, booking into one IngestReport:
///   1. value checks, in this order: car id UINT32_MAX (a bad field: a fleet
///      holding it would need 2^32 ids, one more than its uint32 size can
///      count), duration below zero, duration above int32 or max_duration_s,
///      start outside [0, horizon_s), cell id at or past cell_universe. A
///      failing record is dropped (records_dropped).
///   2. the sequence rule against the previously screened record: an exact
///      copy is a duplicate and is dropped, else a record that sorts before
///      it is out of order and kept (Dataset::finalize re-sorts it). Both
///      count as repaired (records_repaired).
/// Every fault, record-level or structural, is booked by fault(): strict
/// mode counts it and throws util::CsvError("<reason> at byte offset N in
/// <label>"); lenient mode hands it to IngestReport::record_fault, with the
/// raw row where the input has one (CSV does, CCDR2 does not). Accepting a
/// record builds no string; only a fault does.
class RecordScreen {
 public:
  RecordScreen(const IngestOptions& options, IngestReport& report,
               const std::string& label)
      : options_(options), report_(report), label_(label) {}

  /// The report every fault is booked into.
  [[nodiscard]] IngestReport& report() const { return report_; }

  /// Books one fault as described above. Throws in strict mode.
  void fault(FaultClass fault, std::uint64_t offset, std::string reason,
             std::string_view raw = {});

  /// The value checks. `duration` is the value before it is narrowed to
  /// int32, so a CSV field too large for a record fails the same check.
  /// Returns false for a dropped record.
  [[nodiscard]] bool values(std::uint32_t car, std::int64_t start,
                            std::uint32_t cell, std::int64_t duration,
                            std::uint64_t offset, std::string_view raw = {}) {
    FaultClass fault = FaultClass::kCount;
    if (car == std::numeric_limits<std::uint32_t>::max()) {
      fault = FaultClass::kBadField;
    } else if (duration < 0) {
      fault = FaultClass::kNegativeDuration;
    } else if (duration > std::numeric_limits<std::int32_t>::max() ||
               (options_.max_duration_s > 0 &&
                duration > options_.max_duration_s)) {
      fault = FaultClass::kOverflowDuration;
    } else if (options_.horizon_s > 0 &&
               (start < 0 || start >= options_.horizon_s)) {
      fault = FaultClass::kClockSkew;
    } else if (options_.cell_universe > 0 && cell >= options_.cell_universe) {
      fault = FaultClass::kUnknownCell;
    }
    if (fault == FaultClass::kCount) return true;
    drop(fault, car, start, cell, duration, offset, raw);
    return false;
  }

  /// The sequence rule; `c` becomes the previous record. Returns false for
  /// a dropped duplicate.
  [[nodiscard]] bool sequence(const Connection& c, std::uint64_t offset,
                              std::string_view raw = {}) {
    FaultClass fault = FaultClass::kCount;
    if (have_previous_) {
      if (options_.check_duplicates && c == previous_) {
        fault = FaultClass::kDuplicateRecord;
      } else if (options_.check_order && ByCarThenStart{}(c, previous_)) {
        fault = FaultClass::kOutOfOrderRecord;
      }
    }
    previous_ = c;
    have_previous_ = true;
    if (fault == FaultClass::kCount) return true;
    repair(fault, offset, raw);
    return fault != FaultClass::kDuplicateRecord;
  }

  /// One whole record of an input without raw rows (CCDR2): counts it read,
  /// runs both checks and counts it accepted if it survives.
  [[nodiscard]] bool screen(const Connection& c, std::uint64_t offset) {
    ++report_.rows_read;
    if (!values(c.car.value, c.start, c.cell.value, c.duration_s, offset) ||
        !sequence(c, offset)) {
      return false;
    }
    ++report_.records_accepted;
    return true;
  }

  /// Forgets the previous record, so the next one starts a new sequence.
  void reset() { have_previous_ = false; }

 private:
  void drop(FaultClass fault, std::uint32_t car, std::int64_t start,
            std::uint32_t cell, std::int64_t duration, std::uint64_t offset,
            std::string_view raw);
  void repair(FaultClass fault, std::uint64_t offset, std::string_view raw);

  const IngestOptions& options_;
  IngestReport& report_;
  const std::string& label_;
  Connection previous_{};
  bool have_previous_ = false;
};

}  // namespace ccms::cdr
