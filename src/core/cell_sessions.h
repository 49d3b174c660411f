// Per-cell connection durations and the per-cell day view — Figs 8, 9 (§4.4).
//
// Fig 9: CDF of the duration of cars' connections to a radio cell (median
// 105 s, 73rd percentile at 600 s, mean 625 s full / 238 s truncated).
// Fig 8: all connections of one cell over 24 hours, one row per car, with
// the most-concurrent 15-minute bin highlighted (377 cars / 16 concurrent in
// the paper's example).
#pragma once

#include <vector>

#include "cdr/dataset.h"
#include "stats/quantile.h"

namespace ccms::core {

/// Output of the duration analysis (Fig 9).
struct CellSessionStats {
  /// Full reported durations of all connections, seconds.
  stats::EmpiricalDistribution durations;
  double median = 0;
  double mean_full = 0;
  double mean_truncated = 0;  ///< after per-connection cap at `cap`
  /// CDF value at the truncation cap (the paper's "73rd percentile at
  /// 600 s" means this is ~0.73).
  double cdf_at_cap = 0;
  std::int32_t cap = 600;

  friend bool operator==(const CellSessionStats&,
                         const CellSessionStats&) = default;
};

/// Runs the duration analysis on a finalized (cleaned) dataset.
[[nodiscard]] CellSessionStats analyze_cell_sessions(
    const cdr::Dataset& dataset, std::int32_t truncation_cap = 600);

/// Derives the Fig 9 scalars (median, mean_full, mean_truncated,
/// cdf_at_cap, cap) from a duration distribution; `durations` stays empty.
/// mean_truncated divides the integer sum of min(v, cap) over the runs.
/// Shared by the batch pass and the ccms::stream snapshot so both derive
/// Fig 9 identically.
[[nodiscard]] CellSessionStats summarize_cell_sessions(
    const stats::EmpiricalDistribution& durations, std::int32_t cap);

/// One car's connections within the Fig 8 window.
struct CellDayCar {
  CarId car;
  std::vector<time::Interval> connections;
};

/// The Fig 8 view: one cell over one day.
struct CellDayTimeline {
  CellId cell;
  int day = 0;
  std::vector<CellDayCar> cars;  ///< one row per distinct car
  /// Maximum number of distinct cars whose connections straddle the same
  /// 15-minute bin of the day.
  int max_concurrent = 0;
  /// The bin where the maximum occurs.
  int max_concurrent_bin = 0;
};

/// Extracts the timeline of `cell` on study day `day`. Connections that
/// overlap the day are clipped to it.
[[nodiscard]] CellDayTimeline cell_day_timeline(const cdr::Dataset& dataset,
                                                CellId cell, int day);

/// The cell with the most distinct cars on `day` (the natural choice for a
/// Fig 8 exhibit). Returns the count too.
struct BusiestCell {
  CellId cell;
  std::size_t distinct_cars = 0;
};
[[nodiscard]] BusiestCell busiest_cell_by_cars(const cdr::Dataset& dataset,
                                               int day);

}  // namespace ccms::core
