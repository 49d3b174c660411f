// The producer-side front end of the streaming engine.
//
// Frontend owns stages 0-4 of the push pipeline, factored out of
// ShardedEngine so that the distributed supervisor (dist/supervisor.h) runs
// the *same* code path:
//
//   stage 0  exactly-once dedup against per-car ack cursors (opt-in)
//   stage 1  inline §3 clean screen: cdr::survives_clean, the rule
//            cdr::clean and run_study's fold apply (CleanReport accounting)
//   stage 2  watermark check; provably-late records quarantined as
//            FaultClass::kOutOfOrderRecord with post-dedup ordinals
//   stage 3  exact global duration histogram (DurationTally, whose Fig 9
//            scalars come from core::summarize_cell_sessions at snapshot
//            time) + per-shard routing counters
//   stage 4  batching: a shard's pending records are cut as one Batch when
//            they fill it or when flush() is called
//
// Because the whole class is single-threaded and shard-count independent,
// any two engines fed the same record sequence have bitwise-identical
// frontends and cut identical batches — the keystone of the in-process vs.
// distributed parity argument (DESIGN.md §14). Its clamp of the config is
// the only one; both engines read the clamped config().
//
// save()/load() round-trip the complete state through Checkpoint::Producer
// (the engines save with every batch flushed); load() re-caps the
// quarantine to the live config's cap (quarantine_cap is a tunable, not
// part of the fingerprint).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cdr/clean.h"
#include "cdr/integrity.h"
#include "cdr/record.h"
#include "stream/checkpoint.h"
#include "stream/config.h"
#include "stream/report.h"
#include "util/time.h"

namespace ccms::stream {

/// One shard's run of routed records, cut by Frontend and integrated by a
/// shard in order: offer() each record, then advance() to the watermark.
/// The dist wire carries it as the kBatch payload (dist::BatchFrame), and
/// the supervisor's gap log replays it as is.
struct Batch {
  std::uint64_t seq_of_last = 0;  ///< shard's routed seq of records.back()
  time::Seconds watermark = 0;    ///< producer watermark at flush time
  std::vector<cdr::Connection> records;
};

class Frontend {
 public:
  /// Clamps shards, batch_records and queue_batches to >= 1. Throws
  /// std::invalid_argument unless config.clean.max_plausible_duration_s > 0:
  /// the bound caps every routed duration, and so the size of the duration
  /// histogram.
  explicit Frontend(const StreamConfig& config);

  /// Classifies one record in arrival order, updating every producer
  /// counter; a routed record joins its shard's (car % shards) pending
  /// batch. Returns that shard when its batch just reached batch_records:
  /// the caller cuts it with flush() now.
  [[nodiscard]] std::optional<std::size_t> offer(const cdr::Connection& c);

  /// Cuts `shard`'s pending records as one Batch, stamped with the current
  /// watermark and the shard's routed sequence. Empty records if none are
  /// pending.
  [[nodiscard]] Batch flush(std::size_t shard);

  /// Serialises the complete producer state (cursors sorted by car).
  void save(Checkpoint::Producer& p) const;

  /// Restores from a producer image, re-capping the quarantine to this
  /// config's quarantine_cap. The caller validates the image with
  /// image_fits() first.
  void load(const Checkpoint::Producer& p);

  [[nodiscard]] const StreamConfig& config() const { return config_; }
  [[nodiscard]] const cdr::IngestReport& ingest() const { return ingest_; }
  [[nodiscard]] const cdr::CleanReport& clean() const { return clean_; }
  [[nodiscard]] const DurationTally& durations() const { return durations_; }
  [[nodiscard]] time::Seconds watermark() const { return watermark_; }
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t routed() const { return routed_; }
  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }
  [[nodiscard]] std::uint64_t late() const {
    return ingest_.count(cdr::FaultClass::kOutOfOrderRecord);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& routed_per_shard() const {
    return routed_per_shard_;
  }

  /// Per-car acknowledgement cursors, ascending by car id. Empty unless
  /// config.exactly_once.
  [[nodiscard]] std::vector<AckCursor> ack_cursors() const;

 private:
  void quarantine_late(const cdr::Connection& c);

  StreamConfig config_;
  cdr::IngestReport ingest_;
  cdr::CleanReport clean_;
  DurationTally durations_;
  time::Seconds max_start_ = std::numeric_limits<time::Seconds>::min();
  time::Seconds watermark_ = std::numeric_limits<time::Seconds>::min();
  std::uint64_t offered_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t replayed_ = 0;
  std::vector<std::uint64_t> routed_per_shard_;
  std::vector<std::vector<cdr::Connection>> pending_;  ///< per shard

  /// Exactly-once ack cursors: per car, the largest (start, cell, duration)
  /// delivery key seen. Only populated when config.exactly_once.
  struct CursorKey {
    time::Seconds start = 0;
    std::uint32_t cell = 0;
    std::int32_t duration_s = 0;

    friend auto operator<=>(const CursorKey&, const CursorKey&) = default;
  };
  std::unordered_map<std::uint32_t, CursorKey> cursors_;
};

}  // namespace ccms::stream
