// The pass form of every §4 analysis: accumulate over one car's records,
// merge order-independently, finalize into the figure struct.
//
// Each analysis is a fold over car spans, including the cell-grouped
// figures: they only need multisets that any car order yields (Fig 9
// durations, Fig 10/11 (cell, bin) observations). This header factors each
// one into an explicit accumulator with:
//
//   add_car(car, records)   fold one car's records, in start order
//   merge(other)            combine adjacent range results
//                           (other's car ids strictly after ours)
//   finalize(...)           derive the figure struct
//
// Every merge is either integer addition (counters and dense count
// histograms), bitset OR, concatenation in ascending car order or a merge
// of canonical run-length multisets, so
// folding chunks on N threads and merging them in chunk order is bitwise
// identical to the sequential fold for any N — the property run_study's
// fold (core/study.cpp) exploits and the determinism suite asserts. The
// sequential analyze_* entry points are thin shells over these same cores.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cdr/record.h"
#include "cdr/session.h"
#include "core/busy_time.h"
#include "core/carrier_usage.h"
#include "core/cell_sessions.h"
#include "core/connected_time.h"
#include "core/day_bits.h"
#include "core/days_histogram.h"
#include "core/handover.h"
#include "core/load_view.h"
#include "core/presence.h"
#include "net/cell.h"
#include "stats/quantile.h"

namespace ccms::core {

/// Unflushed-value threshold for the run-length stores (concurrency keys,
/// and the cell-sessions durations outside its dense histogram): pending raw
/// values are sorted and merge-joined into the run-length store once this
/// many pile up, bounding per-accumulator memory by O(distinct values) +
/// O(flush window) instead of O(records).
inline constexpr std::size_t kPassFlushRecords = std::size_t{1} << 16;

/// Fig 2 / Table 1 pass: per-day distinct-car counts (cars partition across
/// chunks, so counts add) and per-cell day bitsets (cells span chunks, so
/// sets OR together).
class PresenceAccumulator {
 public:
  explicit PresenceAccumulator(int study_days);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(PresenceAccumulator&& other);
  [[nodiscard]] DailyPresence finalize(std::uint32_t fleet_size) const;

 private:
  int days_ = 1;
  std::vector<std::uint64_t> cars_per_day_;
  std::unordered_map<std::uint32_t, DayBits> cell_days_;
  DayBits scratch_;
};

/// Fig 3 pass: per-car connected fraction, full and truncated, appended in
/// ascending car order.
class ConnectedTimeAccumulator {
 public:
  ConnectedTimeAccumulator(int study_days, std::int32_t truncation_cap);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(ConnectedTimeAccumulator&& other);
  [[nodiscard]] ConnectedTime finalize() &&;

 private:
  int study_days_ = 0;
  double study_seconds_ = 0;
  std::int32_t cap_ = 600;
  std::vector<double> full_;
  std::vector<double> truncated_;
};

/// Fig 6 pass: distinct study days per car, ascending car order.
class DaysAccumulator {
 public:
  explicit DaysAccumulator(int study_days);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(DaysAccumulator&& other);
  [[nodiscard]] DaysOnNetwork finalize() &&;

 private:
  int study_days_ = 0;
  std::vector<CarId> cars_;
  std::vector<int> days_per_car_;
  DayBits scratch_;
};

/// Fig 7 pass: per-car busy-time share, ascending car order. Each
/// connection is cut at 15-min bin edges and each slice tests one bit of a
/// BusyMap, the grid's busy predicate at the run's threshold.
class BusyTimeAccumulator {
 public:
  /// `map` must outlive the accumulator.
  explicit BusyTimeAccumulator(const BusyMap* map);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(BusyTimeAccumulator&& other);
  [[nodiscard]] BusyTime finalize() &&;

 private:
  const BusyMap* map_ = nullptr;
  std::vector<CarBusyShare> per_car_;
};

/// §4.5 pass: handover type counts (integer adds) plus per-session handover
/// and distinct-station counts. add_car walks the car's records in place
/// with cdr::SessionBuilder's rule: a record joins the open journey when
/// its start minus the journey's latest end so far is at most the journey
/// gap. Consecutive legs are classified as they are met, and the journey's
/// stations are deduplicated in one reused scratch vector, so no journey
/// allocates. Both per-session statistics are small non-negative integers,
/// counted in stats::CountHistograms — O(max value) per accumulator instead
/// of O(sessions), which is what lets the merged partials of a
/// billion-session sweep fit in memory. Merging is elementwise addition, and
/// finalize() takes each histogram's distribution.
///
/// A record whose cell is past the CellTable throws std::invalid_argument
/// naming the car, the cell and the table size.
class HandoverAccumulator {
 public:
  HandoverAccumulator(const net::CellTable* cells, time::Seconds journey_gap);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(HandoverAccumulator&& other);
  [[nodiscard]] HandoverStats finalize() &&;

 private:
  const net::CellTable* cells_ = nullptr;
  time::Seconds journey_gap_ = cdr::kJourneyGap;
  std::array<std::uint64_t, net::kHandoverTypeCount> counts_{};
  stats::CountHistogram per_session_;  ///< value = handovers/session
  stats::CountHistogram stations_;     ///< value = stations/session
  std::uint64_t session_count_ = 0;
  std::vector<std::uint32_t> scratch_stations_;
};

/// Table 3 pass: per-carrier car counts and connected seconds. Seconds are
/// summed as integers, so the merge is exact and order-independent. A
/// record whose cell is past the CellTable throws std::invalid_argument, as
/// in HandoverAccumulator.
class CarrierUsageAccumulator {
 public:
  explicit CarrierUsageAccumulator(const net::CellTable* cells);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(const CarrierUsageAccumulator& other);
  [[nodiscard]] CarrierUsage finalize() const;

 private:
  const net::CellTable* cells_ = nullptr;
  std::size_t car_count_ = 0;
  std::array<std::size_t, net::kCarrierCount> car_counts_{};
  std::array<std::int64_t, net::kCarrierCount> seconds_{};
};

/// The cells a ConcurrencyCountsAccumulator counts: `keep[c]` for a cell
/// id below keep.size(), `rest` for every id at or past it. The default
/// (empty `keep`, `rest` true) counts every cell.
struct CellMask {
  /// Bytes, not vector<bool>, so threads can fill disjoint ranges.
  std::vector<std::uint8_t> keep;
  bool rest = true;

  [[nodiscard]] bool counts(CellId cell) const {
    return cell.value < keep.size() ? keep[cell.value] != 0 : rest;
  }
};

/// Fig 10/11 pass, car side: each car's deduplicated (cell << 24) |
/// absolute 15-min bin observations, aggregated into sorted (key,
/// multiplicity) runs — O(distinct pairs) memory instead of O(observations),
/// which is the difference between fitting and not fitting a 1M-car sweep.
/// Raw per-car keys buffer in `pending_` and are sorted + merge-joined into
/// the run store every kPassFlushRecords. The runs are a canonical encoding
/// of the observation multiset, so merges commute and
/// ConcurrencyGrid::from_bin_counts sees the same multiset for any car
/// order or chunk partition.
///
/// Each connection counts on its own cell for every bin it straddles; the
/// per-car dedup makes a car count once per (cell, bin).
///
/// An optional CellMask drops the connections on cells it excludes before
/// their keys are buffered. ConcurrencyGrid::build passes none and counts
/// every cell (Fig 10 and the other grid readers). run_study's fold, whose only
/// concurrency reader is Fig 11, passes cluster_busy_cells' busy-radio
/// filter, so it counts only the cells the clustering keeps (a few percent
/// of them).
class ConcurrencyCountsAccumulator {
 public:
  /// `mask`, if non-null, must outlive the accumulator and every merge.
  explicit ConcurrencyCountsAccumulator(int study_days,
                                        const CellMask* mask = nullptr);

  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(ConcurrencyCountsAccumulator&& other);
  /// Sorts the pending keys into the run store now rather than at the
  /// next merge, so a parallel fold pays for it on its own thread.
  void flush_pending();
  /// Sorted keys and their multiplicities (ConcurrencyGrid::from_bin_counts'
  /// input form).
  [[nodiscard]] std::pair<std::vector<std::uint64_t>,
                          std::vector<std::uint64_t>>
  take_counts() &&;

 private:
  std::int64_t total_bins_ = 0;
  const CellMask* mask_ = nullptr;
  std::vector<std::uint64_t> pending_;  ///< per-car deduped keys, unflushed
  std::vector<std::uint64_t> keys_;     ///< sorted, unique
  std::vector<std::uint64_t> counts_;   ///< multiplicity per key
  std::vector<std::uint64_t> scratch_;
};

/// Fig 9 pass: the connection-duration multiset. A duration in
/// [0, kDenseDurationLimit) is one increment of a stats::CountHistogram
/// grown to the largest duration seen; the histogram is bounded because
/// analyze_cell_sessions accepts any Dataset, raw ones included, and the
/// clean's plausibility bound can be disabled. Any other duration goes to
/// a run-length store (sorted unique values + multiplicities, with a
/// pending buffer flushed every kPassFlushRecords). Either way the
/// accumulator holds O(distinct durations), not O(records), and merging is
/// histogram addition plus a run merge. finalize() lays the store's runs
/// below 0, the histogram's non-zero bins and the store's runs above the
/// limit end to end — the ascending runs of the whole multiset, which
/// from_sorted_runs takes as they are — and summarize_cell_sessions
/// derives the scalars.
class CellSessionsAccumulator {
 public:
  /// Durations below this (and not negative) are counted densely.
  static constexpr std::int32_t kDenseDurationLimit = std::int32_t{1} << 16;

  explicit CellSessionsAccumulator(std::int32_t truncation_cap);

  /// Folds one car's durations (cell-blind: the duration multiset is all
  /// Fig 9 needs, and any car order yields the same multiset).
  void add_car(CarId car, std::span<const cdr::Connection> records);
  void merge(CellSessionsAccumulator&& other);
  /// Sorts the pending out-of-range durations into the run store now
  /// rather than at the next merge.
  void flush_pending();
  [[nodiscard]] CellSessionStats finalize() &&;

 private:
  std::int32_t cap_ = 600;
  stats::CountHistogram hist_;             ///< durations in [0, limit)
  std::vector<std::int32_t> pending_;      ///< other durations, unflushed
  std::vector<std::int32_t> run_values_;   ///< sorted, unique
  std::vector<std::uint64_t> run_counts_;  ///< multiplicity per value
};

}  // namespace ccms::core
