// Configuration of the sharded streaming analytics engine.
//
// One StreamConfig fully determines how ccms::stream::ShardedEngine
// partitions, orders and aggregates a live CDR feed. The analysis knobs
// (session gap, truncation cap, cleaning thresholds) default to the paper's
// choices so that a snapshot is directly comparable to core::run_study over
// the same records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "cdr/clean.h"
#include "cdr/record.h"
#include "cdr/session.h"
#include "util/time.h"

namespace ccms::stream {

struct StreamConfig {
  /// Worker shards. Records are partitioned by car id (car % shards), so
  /// every per-car operator runs single-threaded over its own state.
  int shards = 1;

  /// Out-of-order window: a record may arrive up to this many seconds of
  /// stream time after a later-starting record and still be integrated.
  /// Records older than `max start seen - allowed_lateness` are past the
  /// watermark: they are quarantined and counted, never silently dropped.
  time::Seconds allowed_lateness = 300;

  /// §3 aggregation gap for the streaming sessionizer.
  time::Seconds session_gap = cdr::kSessionGap;

  /// §3 per-connection truncation cap (the Fig 3/9 "truncated" variant).
  std::int32_t truncation_cap = 600;

  /// Inline §3 cleaning screen, applied record-by-record at ingest through
  /// cdr::survives_clean, the rule cdr::clean applies to a batch dataset.
  /// clean.max_plausible_duration_s must be > 0 (the engines throw
  /// std::invalid_argument otherwise): it caps every routed duration, and
  /// so the producer's dense duration histogram.
  cdr::CleanOptions clean;

  /// Declared fleet size (>= max car id + 1); the Fig 2 denominator. The
  /// engine grows past it if a larger car id appears.
  std::uint32_t fleet_size = 0;

  /// Study horizon in days. When > 0, day indices clamp into
  /// [0, study_days-1] exactly as the batch analyses do; when 0, the
  /// horizon grows with the watermark.
  int study_days = 0;

  /// Records per batch handed from the ingest thread to a shard. Larger
  /// batches amortise queue locking; smaller ones lower snapshot lag.
  std::size_t batch_records = 512;

  /// Bounded depth of each shard's batch queue (backpressure: push blocks
  /// when a shard falls this far behind).
  std::size_t queue_batches = 64;

  /// How many completed 15-minute bins of per-cell concurrency to retain
  /// for the live view (96 = one day).
  int recent_bins = 96;

  /// Max quarantine entries retained verbatim — the same semantics as
  /// cdr::IngestOptions::quarantine_cap: counters keep counting past the
  /// cap (quarantine_overflow), 0 retains no entries at all, and a restore
  /// re-caps a loaded quarantine to this engine's cap. A pathological
  /// all-late feed therefore costs at most `quarantine_cap` retained
  /// entries, never unbounded memory.
  std::size_t quarantine_cap = 64;

  /// How many per-cell duration-quantile rows a snapshot reports (the
  /// busiest cells by connection count).
  std::size_t top_cells = 16;

  /// Exactly-once replay dedup for at-least-once feeds (faults::FlakyFeed,
  /// or any upstream that re-delivers from its last acknowledged position
  /// after a disconnect or an engine restore). The engine keeps one
  /// acknowledgement cursor per car — the largest (start, cell, duration)
  /// key delivered so far — and drops re-delivered records at or below it
  /// before *any* accounting, so a killed-and-restored run is bitwise
  /// identical to an uninterrupted one. Requires per-car delivery keys to be
  /// strictly increasing for fresh records (true for arrival_order feeds and
  /// FlakyFeed, whose reorder bursts preserve per-car order); feeds that can
  /// invert same-car records, e.g. FaultInjector::jitter_feed, must leave
  /// this off.
  bool exactly_once = false;

  /// Shard-supervision fault hook, run before each record is integrated
  /// into a shard's operators. A throw from it (or from an operator) marks
  /// that shard degraded — quarantined, its unprocessed records counted —
  /// instead of taking down the process; snapshots then carry explicit
  /// degraded_shards / coverage_fraction accounting. Not part of the
  /// checkpoint (re-attach after restore).
  std::function<void(int shard_index, const cdr::Connection&)> operator_hook;
};

}  // namespace ccms::stream
