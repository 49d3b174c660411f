// Per-shard incremental operators of the streaming engine.
//
// A ShardState owns every piece of state for the cars routed to one shard
// and is only ever touched by one worker thread at a time. It mirrors the
// batch analyses operator by operator:
//
//   streaming sessionization   cdr::SessionBuilder      (= aggregate_sessions)
//   connected-time counters    interval-run merging     (= union_connected_time)
//   daily presence / days      per-car & per-cell day bitsets (= analyze_presence,
//                                                          analyze_days_on_network)
//   24x7 usage counts          core::add_connection     (= usage_matrix summed)
//   per-cell duration quantiles stats::P2Quantile per cell (Fig 9 per cell)
//   recent concurrency         distinct cars per (cell, 15-min bin)
//
// Records enter via offer() in arrival order and sit in a bounded reorder
// heap; advance(watermark) integrates everything strictly older than the
// watermark in (start, car, cell, duration) order, which restores the
// per-car start order every batch analysis assumes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdr/record.h"
#include "cdr/session.h"
#include "core/day_bits.h"
#include "core/usage_matrix.h"
#include "stats/descriptive.h"
#include "stats/p2_quantile.h"
#include "stream/config.h"

namespace ccms::stream {

/// Compact per-car set of study days (bit d = car seen on day d). The
/// batch passes and the stream operators share one implementation — see
/// core/day_bits.h.
using DayBits = core::DayBits;

/// One completed (or still-open) 15-minute concurrency bin of one shard.
struct BinCounts {
  std::int64_t bin = 0;  ///< absolute bin index (start / 900 s)
  std::uint32_t cars = 0;  ///< distinct cars active in the bin
  /// Distinct cars per cell, ascending by cell id.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  bool provisional = false;  ///< still inside the out-of-order window

  friend bool operator==(const BinCounts&, const BinCounts&) = default;
};

/// Everything a snapshot needs from one shard, merged by the report layer.
struct ShardSnapshot {
  /// (car id, full seconds, truncated seconds, distinct days) for every car
  /// with at least one integrated record, ascending by car id.
  struct CarTotals {
    std::uint32_t car = 0;
    std::int64_t full_s = 0;
    std::int64_t trunc_s = 0;
    int days = 0;
  };
  std::vector<CarTotals> cars;

  /// Distinct cars of this shard present per study day.
  std::vector<std::uint32_t> cars_per_day;

  /// Day bitset per touched cell (cells overlap across shards; merged by OR).
  std::vector<std::pair<std::uint32_t, DayBits>> cell_days;

  core::Matrix24x7 usage;

  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_open = 0;
  stats::Accumulator session_span;

  /// Per-cell connection counts and P2 median estimates.
  struct CellStat {
    std::uint32_t cell = 0;
    std::uint64_t connections = 0;
    double median_s = 0;
  };
  std::vector<CellStat> cell_stats;

  std::vector<BinCounts> bins;  ///< folded + provisional concurrency bins

  std::uint64_t records = 0;      ///< records integrated
  std::size_t reorder_peak = 0;   ///< max reorder-heap depth observed
  std::size_t reorder_pending = 0;
};

/// Durable image of one shard's full operator state: everything save()
/// exports and load() needs to resume bit-exactly — including the reorder
/// heap's pending records and every estimator's internal markers. All
/// associative content is exported in sorted key order so equal states
/// always serialize to equal bytes.
struct ShardCheckpoint {
  struct Car {
    std::uint32_t local_index = 0;  ///< index into the shard's car table
    bool session_open = false;
    cdr::Session open_session;  ///< valid only when session_open
    cdr::IntervalUnionRun::State full;
    cdr::IntervalUnionRun::State trunc;
    std::vector<std::uint64_t> day_words;
  };
  std::vector<Car> cars;  ///< seen cars only, ascending local index

  std::vector<std::uint32_t> cars_per_day;
  /// Per-cell day bitsets, ascending by cell id.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> cell_days;
  core::Matrix24x7 usage;
  std::uint64_t sessions_closed = 0;
  stats::Accumulator::State session_span;

  struct CellDuration {
    std::uint32_t cell = 0;
    std::uint64_t connections = 0;
    stats::P2Quantile::State median;
  };
  std::vector<CellDuration> cell_durations;  ///< ascending by cell id

  /// Reorder-heap contents in ascending (start, car, cell, duration) order.
  std::vector<cdr::Connection> reorder;
  std::uint64_t reorder_peak = 0;

  struct ActiveBin {
    std::int64_t bin = 0;
    std::vector<std::uint32_t> cars;  ///< ascending
    /// Ascending by cell; member cars ascending.
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> per_cell;
  };
  std::vector<ActiveBin> active_bins;  ///< ascending by bin
  std::vector<BinCounts> folded_bins;  ///< deque order (ascending by bin)

  std::uint64_t records = 0;
  std::int64_t max_day_seen = -1;
  bool closed = false;
};

/// State of one shard. Single-writer; see file comment.
class ShardState {
 public:
  ShardState(const StreamConfig& config, int shard_index);

  /// Accepts one record (already screened by the ingest layer) into the
  /// reorder heap. Does not integrate it yet.
  void offer(const cdr::Connection& c);

  /// Integrates every held record with start < watermark, in (start, car,
  /// cell, duration) order, and folds concurrency bins that can no longer
  /// change.
  void advance(time::Seconds watermark);

  /// End of stream: integrates everything, closes open sessions and
  /// interval runs. Terminal; only snapshot() is useful afterwards.
  void close();

  /// Copies out the mergeable view of this shard. Open sessions and
  /// interval runs are reported provisionally (their current extent counts)
  /// so mid-stream snapshots are meaningful.
  [[nodiscard]] ShardSnapshot snapshot() const;

  /// Exports the complete durable state (deterministic: equal states save
  /// to equal images).
  void save(ShardCheckpoint& out) const;

  /// Replaces this shard's whole state with a previously saved image. The
  /// resumed shard integrates the remaining stream bit-identically to one
  /// that never stopped.
  void load(const ShardCheckpoint& in);

 private:
  struct CarState {
    cdr::SessionBuilder session{0};
    // Union-of-intervals runs, full and truncated variants — the same
    // incremental core batch union_connected_time folds over.
    cdr::IntervalUnionRun full;
    cdr::IntervalUnionRun trunc;
    DayBits days;
    bool seen = false;
  };

  struct ActiveBin {
    std::unordered_set<std::uint32_t> cars;
    std::unordered_map<std::uint32_t, std::unordered_set<std::uint32_t>>
        per_cell;
  };

  void integrate(const cdr::Connection& c);
  CarState& car_state(std::uint32_t car);
  void mark_days(CarState& state, std::uint32_t car, std::uint32_t cell,
                 time::Seconds start, time::Seconds end);
  void mark_bins(std::uint32_t car, std::uint32_t cell, time::Seconds start,
                 time::Seconds end);
  void fold_bins(time::Seconds watermark);

  StreamConfig config_;
  int shard_index_ = 0;
  bool closed_ = false;

  // Arrival-order total order: (start, car, cell, duration). std::greater
  // over the tuple makes the priority queue a min-heap on it.
  struct ByArrival {
    bool operator()(const cdr::Connection& a, const cdr::Connection& b) const {
      if (a.start != b.start) return a.start > b.start;
      if (a.car != b.car) return a.car > b.car;
      if (a.cell != b.cell) return a.cell > b.cell;
      return a.duration_s > b.duration_s;
    }
  };
  std::priority_queue<cdr::Connection, std::vector<cdr::Connection>, ByArrival>
      reorder_;
  std::size_t reorder_peak_ = 0;

  std::vector<CarState> cars_;          // indexed by car / shards
  std::vector<std::uint32_t> cars_per_day_;
  std::unordered_map<std::uint32_t, DayBits> cell_days_;
  core::Matrix24x7 usage_;
  std::uint64_t sessions_closed_ = 0;
  stats::Accumulator session_span_;
  std::unordered_map<std::uint32_t, std::pair<std::uint64_t, stats::P2Quantile>>
      cell_durations_;

  std::map<std::int64_t, ActiveBin> active_bins_;
  std::deque<BinCounts> folded_bins_;

  std::uint64_t records_ = 0;
  std::int64_t max_day_seen_ = -1;
};

}  // namespace ccms::stream
