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
//                              core::ConcurrencyCountsAccumulator; distinct
//                              cars per bin counted once each through a
//                              per-car "highest bin counted" mark
//
// State layout. Cars are striped car % shards -> shard, car / shards ->
// index into a vector of CarState. Cells are interned on first sight into
// dense shard-local indices (one open-addressing probe per record), and
// each cell's day words, connection count and P2 estimator live in flat
// arrays at that index; a cached (cell id, index) list, kept ascending,
// gives snapshots and the checkpoint writer cell order without a hash
// walk. The open 15-minute bins sit in a ring indexed by bin - oldest open
// bin. Records integrate in start order, so a bin that ends at or before
// the record being integrated is final: it folds right then, and the ring
// spans at most the longest record's bins plus two. Each car keeps the
// highest bin it was counted in, so a bin counts its distinct cars as
// they come (see mark_bins()).
//
// Records enter via offer() in arrival order and sit in a bounded reorder
// heap; advance(watermark) integrates everything strictly older than the
// watermark in (start, car, cell, duration) order, which restores the
// per-car start order every batch analysis assumes.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <utility>
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

  /// Day words of every touched cell (cells overlap across shards; merged
  /// by OR). `day_cells` ascends; cell day_cells[i] has the words
  /// day_words[day_rows[i], day_rows[i + 1]), bit d of word d / 64 set for
  /// each study day d it was active on.
  std::vector<std::uint32_t> day_cells;
  std::vector<std::size_t> day_rows;
  std::vector<std::uint64_t> day_words;

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

  /// Most bins the open-bin window may span: about 30 years, far beyond
  /// any record a screened feed holds (clean.max_plausible_duration_s).
  /// A record or checkpoint section that needs more is refused.
  static constexpr std::int64_t kMaxOpenBins = std::int64_t{1} << 20;

 private:
  /// Below every bin: the marks of a car in no open bin.
  static constexpr std::int64_t kNoBin =
      std::numeric_limits<std::int64_t>::min();

  struct CarState {
    cdr::SessionBuilder session{0};
    // Union-of-intervals runs, full and truncated variants — the same
    // incremental core batch union_connected_time folds over.
    cdr::IntervalUnionRun full;
    cdr::IntervalUnionRun trunc;
    DayBits days;
    // Concurrency marks: the car is counted in every open bin in
    // [bin_anchor, bin_mark] (or that bin recounts from its keys) and in
    // no bin above bin_mark. Rebuilt from the open bins on load; see
    // mark_bins().
    std::int64_t bin_anchor = kNoBin;
    std::int64_t bin_mark = kNoBin;
    bool seen = false;
  };

  // One open 15-minute bin. Observations append (cell << 32) | car keys,
  // and compact() sorts and deduplicates them, so after it `keys` holds
  // the distinct pairs, ascending by cell. `cars` counts its distinct cars
  // unless `recount` is set, when they are counted from the keys instead.
  struct ActiveBin {
    std::vector<std::uint64_t> keys;
    std::size_t compacted = 0;  ///< keys.size() after the last compact()
    std::uint32_t cars = 0;
    /// Set on a bin whose counter the car marks cannot vouch for: one
    /// opened at or below the highest bin ever opened (a folded bin opened
    /// again), one reached by another shard's car or by a record that
    /// starts before its car's run of counted bins, or a loaded bin with a
    /// car that has no marks here.
    bool recount = false;

    /// A key, (cell << 32) | car: sorted keys group by cell.
    static std::uint64_t key(std::uint32_t cell, std::uint32_t car) {
      return (std::uint64_t{cell} << 32) | car;
    }
    static std::uint32_t cell_of(std::uint64_t key) {
      return static_cast<std::uint32_t>(key >> 32);
    }
    static std::uint32_t car_of(std::uint64_t key) {
      return static_cast<std::uint32_t>(key);
    }

    void add(std::uint32_t car, std::uint32_t cell);
    /// No-op when nothing was added since the last compaction.
    void compact();
    /// The distinct cars of `keys`, ascending.
    [[nodiscard]] static std::vector<std::uint32_t> distinct_cars(
        const std::vector<std::uint64_t>& keys);
    void clear();
  };
  /// The counts of a compacted bin.
  static BinCounts count_bin(std::int64_t bin, const ActiveBin& active);

  void integrate(const cdr::Connection& c);
  /// The state of the car at local index `local` (car / shards).
  CarState& car_state(std::uint32_t local);
  /// The local index of `cell`, interning it on first sight.
  std::uint32_t cell_index(std::uint32_t cell);
  /// Moves a cell's day words to a row of at least `words` words at the
  /// end of cell_words_.
  void widen_row(std::uint32_t cell_at, std::size_t words);
  void mark_days(CarState& state, std::uint32_t cell_at, time::Seconds start,
                 time::Seconds end);
  /// Adds a record's keys to its bins [first, last], counting its car in
  /// those it is new to. `own_car`: the car is one of this shard's.
  void mark_bins(CarState& state, bool own_car, std::uint32_t car,
                 std::uint32_t cell, std::int64_t first, std::int64_t last);
  /// Grows the open-bin window to cover [first, last].
  void open_window(std::int64_t first, std::int64_t last);
  ActiveBin& open_bin(std::int64_t bin) {
    const auto i = static_cast<std::size_t>(bin - window_first_);
    return window_[(window_head_ + i) & (window_.size() - 1)];
  }
  /// Folds every open bin that ends at or before `until`.
  void fold_bins(time::Seconds until);
  /// Empties the cars, cells and bins a checkpoint load refills.
  void reset_for_load();
  /// Places a loaded open bin with distinct cars `cars` (ascending) and
  /// rebuilds the marks and recount flag the shard held for it; bins load
  /// in ascending order.
  void load_bin(std::int64_t bin, std::vector<std::uint64_t> keys,
                const std::vector<std::uint32_t>& cars);
  /// (cell id, local index) of every cell, ascending by cell id.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& sorted_cells();

  StreamConfig config_;
  int shard_index_ = 0;
  std::uint32_t shards_ = 1;
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
  core::Matrix24x7 usage_;
  std::uint64_t sessions_closed_ = 0;
  stats::Accumulator session_span_;

  // Per-cell state. cell_slots_ maps a cell id to its local index; the
  // other per-cell vectors are indexed by it.
  /// (cell << 32) | (index + 1) per cell, 0 in an empty slot.
  std::vector<std::uint64_t> cell_slots_;
  /// Each cell's day words: a row of cell_words_. A row is as wide as the
  /// study horizon, or as the latest day seen when the horizon is open; a
  /// row that must widen moves to the end.
  struct DayRow {
    std::size_t at = 0;
    std::size_t words = 0;
  };
  std::vector<DayRow> cell_rows_;
  std::vector<std::uint64_t> cell_words_;
  std::vector<std::uint64_t> cell_connections_;
  std::vector<stats::P2Quantile> cell_medians_;
  /// Which checkpoint lists hold the cell: kDayList | kDurationList on a
  /// live shard, either one alone only in a hand-written section.
  std::vector<std::uint8_t> cell_lists_;
  static constexpr std::uint8_t kDayList = 1;
  static constexpr std::uint8_t kDurationList = 2;
  /// (cell id, local index) of every cell: an ascending prefix, then the
  /// cells interned since sorted_cells() last ran.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells_by_id_;
  std::size_t cells_sorted_ = 0;  ///< cells_by_id_'s ascending prefix

  // Open bins: bin window_first_ + i is open_bin() for i < window_size_,
  // in a ring of power-of-two size; a bin without keys is not open.
  std::vector<ActiveBin> window_;
  std::size_t window_head_ = 0;
  std::size_t window_size_ = 0;
  std::int64_t window_first_ = 0;
  std::int64_t top_bin_ = kNoBin;  ///< highest bin ever opened
  std::deque<BinCounts> folded_bins_;
  /// Leading folded bins an advance completed; the rest folded inside an
  /// advance that threw.
  std::size_t folded_final_ = 0;

  std::uint64_t records_ = 0;
  std::int64_t max_day_seen_ = -1;

  /// The checkpoint section's field list (stream/checkpoint.cpp).
  template <class IO>
  friend void fields(IO& io, ShardState& s);
};

}  // namespace ccms::stream
