// Ingest integrity accounting: the fault taxonomy, Strict/Lenient parse
// modes and the per-stage IngestReport.
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
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

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
  kTruncatedPayload,   ///< binary: record count overflows the payload bytes
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

  /// Ingest parallelism: 1 = sequential (default), 0 = hardware
  /// concurrency, N = N threads. The produced Dataset and IngestReport are
  /// bitwise identical for every value (see DESIGN.md §10): chunk results
  /// merge in byte-offset order and the cross-chunk order/duplicate checks
  /// are re-applied at chunk seams.
  int threads = 1;

  /// Minimum chunk granularity for parallel ingest, in bytes (CSV chunks
  /// are additionally newline-aligned; binary chunks rounded to whole
  /// records). 0 = default 1 MiB. Tests shrink this to force chunk seams
  /// on small fixtures.
  std::size_t chunk_bytes = 0;
};

/// One quarantined record: enough to audit the fault post-hoc.
struct QuarantineEntry {
  FaultClass fault = FaultClass::kCount;
  std::uint64_t byte_offset = 0;  ///< offset of the row/record in the input
  std::string reason;             ///< human-readable diagnosis
  std::string raw;                ///< raw CSV row / binary record hex prefix

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
  std::uint64_t rows_read = 0;          ///< data rows / binary records seen
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

  /// Folds in the report of the input that directly follows this one's
  /// (the next chunk, block or stage): counters add, quarantines
  /// concatenate in input order, then the global cap is re-applied. Each
  /// side retained a prefix of its own entries, so the first
  /// `quarantine_cap` of the concatenation are exactly the set a single
  /// sequential pass retains, and the overflow count stays exact. `mode`
  /// and `bytes_consumed` describe the whole input and are left alone.
  void merge(IngestReport&& later, std::size_t quarantine_cap);

  friend bool operator==(const IngestReport&, const IngestReport&) = default;
};

}  // namespace ccms::cdr
