// Concurrent cars per cell — Figs 8, 10 and the input of Fig 11 (§4.4).
//
// "We declare cars concurrent if their connections straddle a 15-minute time
// bin of the day." For each cell we build the average number of distinct
// cars per 15-minute bin of the week (Fig 10 plots one week of this next to
// the cell's U_PRB) and its 96-bin daily fold (the vectors Fig 11 clusters).
//
// Each connection counts on its own cell in every bin it straddles, and the
// counts are deduplicated per car, so a car with several connections to one
// cell within a bin counts once.
#pragma once

#include <span>
#include <vector>

#include "cdr/dataset.h"
#include "util/time.h"

namespace ccms::core {

/// Concurrency profile of one cell.
struct CellConcurrency {
  CellId cell;
  /// Average distinct cars per 15-minute bin of the week (672 values):
  /// total distinct-car observations in that bin across the study divided
  /// by the number of times the bin occurred.
  std::vector<double> weekly;
  /// 96-bin daily fold (the Fig 11 feature vector).
  std::vector<double> daily;
  /// Peak of `weekly` and overall mean.
  double peak = 0;
  double mean = 0;
  /// Total distinct (car, bin) observations (activity volume).
  std::uint64_t observations = 0;
};

/// Per-cell concurrency over a whole study.
class ConcurrencyGrid {
 public:
  /// Builds the grid from a finalized (cleaned) dataset.
  [[nodiscard]] static ConcurrencyGrid build(const cdr::Dataset& dataset);

  /// Builds the grid from the run-length form of the per-car deduplicated
  /// (cell << 24) | absolute_bin observations: strictly ascending unique
  /// keys and a multiplicity per key (ConcurrencyCountsAccumulator's
  /// output). The result depends only on the observation multiset. This is
  /// the aggregation step behind `build` and run_study's fold.
  [[nodiscard]] static ConcurrencyGrid from_bin_counts(
      std::span<const std::uint64_t> keys,
      std::span<const std::uint64_t> counts, int study_days);

  /// All cells with at least one observation, ascending by cell id.
  [[nodiscard]] const std::vector<CellConcurrency>& cells() const {
    return cells_;
  }

  /// Profile of one cell, if it has observations.
  [[nodiscard]] const CellConcurrency* find(CellId cell) const;

  [[nodiscard]] int study_days() const { return study_days_; }

 private:
  std::vector<CellConcurrency> cells_;
  int study_days_ = 0;
};

}  // namespace ccms::core
