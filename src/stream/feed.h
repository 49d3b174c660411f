// Feed adaptors: batch datasets replayed as live streams.
//
// The parity harness needs to run the same records through run_study (batch)
// and a ShardedEngine (stream). A cdr::Dataset is sorted by (car, start) —
// feeding that order directly would interleave time arbitrarily — so the
// adaptor first re-sorts into arrival order (start, car, cell, duration),
// the order a collection point would see, then replays it either all at once
// or clocked (for the live-monitor example).
#pragma once

#include <vector>

#include "cdr/dataset.h"
#include "stream/engine.h"

namespace ccms::stream {

/// The dataset's records in arrival order: ascending start, ties broken by
/// (car, cell, duration) for determinism.
[[nodiscard]] std::vector<cdr::Connection> arrival_order(
    const cdr::Dataset& dataset);

/// Replays the whole dataset through `engine` in arrival order and finishes
/// the stream. Convenience wrapper for one-shot parity runs.
void replay(const cdr::Dataset& dataset, ShardedEngine& engine);

/// StreamConfig matching a dataset's geometry (fleet size, study days) with
/// everything else at its default, so a replayed snapshot is comparable to
/// run_study over the same dataset.
[[nodiscard]] StreamConfig config_for(const cdr::Dataset& dataset,
                                      int shards = 1);

/// Clocked replay for live consumers: feeds records as stream time passes.
class DatasetFeed {
 public:
  explicit DatasetFeed(const cdr::Dataset& dataset);

  /// Pushes every not-yet-fed record with start <= now. Returns how many.
  std::size_t advance_to(time::Seconds now, ShardedEngine& engine);

  [[nodiscard]] bool exhausted() const { return next_ >= arrivals_.size(); }
  [[nodiscard]] std::size_t fed() const { return next_; }
  [[nodiscard]] std::size_t total() const { return arrivals_.size(); }

  /// Start time of the next record, or the max Seconds if exhausted.
  [[nodiscard]] time::Seconds next_start() const;

 private:
  std::vector<cdr::Connection> arrivals_;
  std::size_t next_ = 0;
};

}  // namespace ccms::stream
