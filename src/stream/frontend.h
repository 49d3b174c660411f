// The producer-side front end of the streaming engine.
//
// Frontend owns stages 0-2 of the push pipeline plus the exact global
// accounting of stage 3, factored out of ShardedEngine so that the
// distributed supervisor (dist/supervisor.h) runs the *same* code path:
//
//   stage 0  exactly-once dedup against per-car ack cursors (opt-in)
//   stage 1  inline §3 clean screen: cdr::survives_clean, the rule
//            cdr::clean and run_study's fold apply (CleanReport accounting)
//   stage 2  watermark check; provably-late records quarantined as
//            FaultClass::kOutOfOrderRecord with post-dedup ordinals
//   stage 3  exact global duration histogram (DurationTally, whose Fig 9
//            scalars come from core::summarize_cell_sessions at snapshot
//            time) + per-shard routing counters
//
// offer() classifies one arrival-ordered record; only Decision::kRoute
// records reach shard operators, and by then every counter a StreamReport
// derives from the producer has been updated. Because the whole class is
// single-threaded and shard-count independent, any two engines fed the same
// record sequence have bitwise-identical frontends — the keystone of the
// in-process vs. distributed parity argument (DESIGN.md §14).
//
// save()/load() round-trip the complete state through Checkpoint::Producer;
// load() re-caps the quarantine to the live config's cap (quarantine_cap is
// a tunable, not part of the fingerprint).
#pragma once

#include <cstdint>
#include <limits>
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

class Frontend {
 public:
  /// What became of an offered record. Only kRoute records carry state the
  /// owning shard must integrate; all other outcomes are fully accounted
  /// inside the frontend.
  enum class Decision {
    kDuplicate,  ///< dropped by the exactly-once cursor (stage 0)
    kCleaned,    ///< removed by the §3 clean screen (stage 1)
    kLate,       ///< quarantined past the watermark (stage 2)
    kRoute,      ///< accepted; integrate on shard `offer()` returned
  };

  /// Normalises shards to >= 1. Throws std::invalid_argument unless
  /// config.clean.max_plausible_duration_s > 0: the bound caps every routed
  /// duration, and so the size of the duration histogram.
  explicit Frontend(const StreamConfig& config);

  /// Classifies one record in arrival order, updating every producer
  /// counter. On kRoute, `*shard` is the owning shard (car % shards).
  Decision offer(const cdr::Connection& c, std::size_t* shard);

  /// Serialises the complete producer state (cursors sorted by car).
  void save(Checkpoint::Producer& p) const;

  /// Restores from a producer image, re-capping the quarantine to this
  /// config's quarantine_cap. The caller validates the fingerprint and the
  /// routed_per_shard geometry first.
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
