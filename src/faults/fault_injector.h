// Deterministic fault injection for the CDR ingest pipeline.
//
// Trace-driven testbeds validate a measurement pipeline by replaying
// *realistically degraded* traces. This module produces exactly that: a
// seeded FaultInjector corrupts a canonical CSV stream, or an in-memory
// Dataset on its way to CSV or CCDR2, with configurable per-class rates of
// the damage the paper's §3 describes (exactly-1-hour artifacts, stuck
// clocks) and worse (truncated lines, garbage fields, out-of-range values,
// duplicated and reordered records).
//
// Every injected fault is tagged with its cdr::FaultClass and the byte
// offset where the hardened ingest layer will *detect* it, so tests can
// assert IngestReport counters == injected counts exactly, and that strict
// mode fails at precisely the first fatal offset.
//
// Determinism: equal (seed, input, rates) produce identical corrupted bytes
// and identical fault logs, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/dataset.h"
#include "cdr/integrity.h"
#include "util/rng.h"

namespace ccms::faults {

/// Per-record fault rates for CSV / dataset corruption. At most one fault is
/// applied per record (classes are mutually exclusive by a single uniform
/// draw), which keeps every fault independently detectable.
struct CsvFaultRates {
  double truncated_line = 0;     ///< cut the row below 4 fields
  double garbage_field = 0;      ///< non-numeric bytes inside one field
  double duplicate_record = 0;   ///< emit the row twice
  double out_of_order = 0;       ///< swap the row with its successor
  double hour_artifact = 0;      ///< duration := 3600 (§3 reporting artifact)
  double clock_skew = 0;         ///< start := beyond the study horizon
  double negative_duration = 0;  ///< duration := negative
  double overflow_duration = 0;  ///< duration := beyond int32
  double unknown_cell = 0;       ///< cell := outside the cell universe

  bool add_bom = false;          ///< prepend a UTF-8 BOM (must be tolerated)
  bool crlf = false;             ///< CRLF line endings (must be tolerated)
  int trailing_blank_lines = 0;  ///< append blank lines (must be tolerated)

  /// Every record-level class at `total / 9` so the summed corruption
  /// probability per record is ~`total`.
  [[nodiscard]] static CsvFaultRates uniform(double total);

  [[nodiscard]] double total() const;
};

/// One injected fault, tagged with where lenient ingest will detect it.
struct InjectedFault {
  cdr::FaultClass fault = cdr::FaultClass::kCount;
  std::uint64_t byte_offset = 0;  ///< detection anchor in the corrupted bytes
  std::uint64_t record_index = 0; ///< ordinal of the source record
};

/// Everything one corruption pass injected.
struct FaultLog {
  std::vector<InjectedFault> faults;
  std::array<std::uint64_t, cdr::kFaultClassCount> counts{};

  [[nodiscard]] std::uint64_t count(cdr::FaultClass fault) const {
    return counts[static_cast<std::size_t>(fault)];
  }
  [[nodiscard]] std::uint64_t total() const { return faults.size(); }

  /// Count of faults the ingest stage itself detects (everything except
  /// kHourArtifact, which surfaces in the clean stage's accounting).
  [[nodiscard]] std::uint64_t ingest_detectable() const;

  /// Byte offset where strict ingest must throw: the smallest detection
  /// anchor among ingest-detectable faults. UINT64_MAX when none.
  [[nodiscard]] std::uint64_t first_fatal_offset() const;
};

/// Study geometry the injector needs to craft *provably detectable* faults;
/// pass the same values the test hands to cdr::IngestOptions.
struct FaultEnv {
  std::int64_t horizon_s = 0;      ///< enables clock-skew injection
  std::uint32_t cell_universe = 0; ///< enables unknown-cell injection
};

/// Seeded corruption engine. One instance may corrupt many inputs; each
/// call draws from the same deterministic stream.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, FaultEnv env = {});

  struct CorruptedCsv {
    std::string text;
    FaultLog log;
  };
  /// Corrupts a canonical CSV export (as produced by cdr::write_csv_text:
  /// metadata line, header line, data rows sorted by (car, start)).
  [[nodiscard]] CorruptedCsv corrupt_csv(std::string_view canonical_csv,
                                         const CsvFaultRates& rates);

  struct CorruptedDataset {
    cdr::Dataset dataset;
    FaultLog log;
  };
  /// Record-level faults applied directly to a Dataset (no line-structure
  /// classes; truncated_line / garbage_field / out_of_order rates are
  /// ignored — a finalized Dataset is sorted by construction). Detection
  /// anchors are record indices, not byte offsets.
  [[nodiscard]] CorruptedDataset corrupt_dataset(const cdr::Dataset& input,
                                                 const CsvFaultRates& rates);

  /// Arrival-order jitter for a streaming feed (ccms::stream).
  struct FeedJitter {
    /// Uniform per-record arrival delay in [0, max_delay] seconds of
    /// stream time. Clamped to allowed_lateness so a merely-delayed record
    /// is *never* past the watermark (see jitter_feed for the argument).
    time::Seconds max_delay = 120;
    /// Fraction of records made provably late instead.
    double late_rate = 0;
    /// The engine's out-of-order window the feed is aimed at.
    time::Seconds allowed_lateness = 300;
    /// The engine's §3 clean-screen thresholds (0 disables each rule).
    /// Screened records — nonpositive durations always, these two when set —
    /// are dropped before the engine's watermark check, so jitter_feed
    /// neither flags them late nor uses them as late-record witnesses: a
    /// screened witness would never advance the watermark, silently letting
    /// its "provably late" record through.
    std::int32_t artifact_duration_s = 0;
    std::int32_t max_plausible_duration_s = 0;
  };
  struct JitteredFeed {
    /// The records in perturbed arrival order.
    std::vector<cdr::Connection> arrivals;
    /// Records guaranteed to be quarantined as kOutOfOrderRecord: each one
    /// is scheduled to arrive just after a witness record whose start is
    /// beyond its watermark window.
    std::vector<cdr::Connection> late;
  };
  /// Perturbs a start-sorted feed into a plausible out-of-order arrival
  /// sequence with an exactly known set of too-late records, so tests can
  /// assert engine.late_records() == late.size() and snapshot parity
  /// against a batch study over (feed minus late). Deterministic per seed.
  [[nodiscard]] JitteredFeed jitter_feed(
      std::span<const cdr::Connection> start_sorted_feed,
      const FeedJitter& jitter);

 private:
  util::Rng rng_;
  FaultEnv env_;
};

}  // namespace ccms::faults
