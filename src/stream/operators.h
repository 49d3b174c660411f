// Per-shard incremental operators of the streaming engine.
//
// A ShardState owns every piece of state for the cars routed to one shard
// and has a single writer, which also builds its snapshots and writes and
// loads its checkpoint section (stream::write_shard, load_shard: one field
// list over the members, no second copy of the state). Snapshots and the
// writer compact open bins in place, so they are writes too. In
// ShardedEngine that is the shard's worker thread; in dist, the worker
// process, or the thread of a supervisor's scratch copy. The operators
// follow the batch analyses one by one:
//
//   streaming sessionization   cdr::SessionBuilder      (= aggregate_sessions)
//   connected-time counters    interval-run merging     (= union_connected_time)
//   daily presence / days      per-car & per-cell day bitsets (= analyze_presence,
//                                                          analyze_days_on_network)
//   24x7 usage counts          core::add_connection     (= usage_matrix summed)
//   per-cell duration quantiles stats::P2Quantile per cell (Fig 9 per cell)
//   recent concurrency         distinct cars per (cell, 15-min bin): sorted,
//                              deduplicated u64 keys, the method of
//                              core::ConcurrencyCountsAccumulator
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
  /// so mid-stream snapshots are meaningful. Compacts the open bins in
  /// place, which changes no count (they are sets).
  [[nodiscard]] ShardSnapshot snapshot();

  /// The shard this state belongs to; its checkpoint section carries it.
  [[nodiscard]] int index() const { return shard_index_; }

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

  // One open 15-minute bin: every observation is appended as it arrives
  // and compact() sorts and deduplicates both lists, so after it `cars`
  // holds the distinct cars and `keys` the distinct (cell << 32) | car
  // pairs, ascending by cell.
  struct ActiveBin {
    std::vector<std::uint32_t> cars;
    std::vector<std::uint64_t> keys;
    std::size_t compacted = 0;  ///< keys.size() after the last compact()

    /// A key, (cell << 32) | car: sorted keys group by cell.
    static std::uint64_t key(std::uint32_t cell, std::uint32_t car) {
      return (std::uint64_t{cell} << 32) | car;
    }
    static std::uint32_t cell_of(std::uint64_t key) {
      return static_cast<std::uint32_t>(key >> 32);
    }

    void add(std::uint32_t car, std::uint32_t cell);
    /// No-op when nothing was added since the last compaction.
    void compact();
  };
  /// The counts of a compacted bin.
  static BinCounts count_bin(std::int64_t bin, const ActiveBin& active);

  void integrate(const cdr::Connection& c);
  CarState& car_state(std::uint32_t car);
  void mark_days(CarState& state, std::uint32_t cell, time::Seconds start,
                 time::Seconds end);
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
  struct CellDuration {
    std::uint64_t connections = 0;
    stats::P2Quantile median{0.5};
  };
  std::unordered_map<std::uint32_t, CellDuration> cell_durations_;

  std::map<std::int64_t, ActiveBin> active_bins_;
  std::deque<BinCounts> folded_bins_;

  std::uint64_t records_ = 0;
  std::int64_t max_day_seen_ = -1;

  /// The checkpoint section's field list (stream/checkpoint.cpp).
  template <class IO>
  friend void fields(IO& io, ShardState& s);
};

}  // namespace ccms::stream
