// Time spent in busy cells — Fig 7 (§4.3).
//
// Per car: the fraction of its connected time spent in (cell, 15-minute bin)
// combinations whose average U_PRB exceeds the busy threshold (80%). The
// paper reports that most cars spend little time on busy radios, ~2.4% spend
// more than half their connected time there, and ~1% spend all of it there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cdr/dataset.h"
#include "core/load_view.h"
#include "stats/quantile.h"

namespace ccms::core {

/// The busy predicate at one threshold, one bit per (cell, 15-min bin of
/// the week): bit (cell, bin) is set exactly when
/// `load.at(cell, bin) > threshold`. That is the compare CellLoad::busy
/// makes, on the same float, so a share computed from the map is bitwise
/// the share computed from the grid. A row is 672 bits in 11 words, 88 B
/// per cell against the grid's 2,688 B. Ids at or past the grid's cells
/// read 0 in the grid, so they are busy exactly when 0 > threshold.
class BusyMap {
 public:
  static constexpr std::size_t kWordsPerCell =
      (static_cast<std::size_t>(time::kBins15PerWeek) + 63) / 64;

  BusyMap() = default;
  /// A map of `load`'s cells at `threshold` with every row clear;
  /// fill_rows sets them, so threads can fill disjoint ranges.
  BusyMap(const CellLoad& load, double threshold);

  /// The whole map, built on the calling thread.
  [[nodiscard]] static BusyMap build(const CellLoad& load, double threshold);

  /// Sets the rows of cells [first, last) from `load`.
  void fill_rows(const CellLoad& load, std::size_t first, std::size_t last);

  [[nodiscard]] std::size_t cell_count() const { return cells_; }

  /// The kWordsPerCell words of `cell`'s row (bin b is bit b % 64 of word
  /// b / 64), or nullptr for an id past the map.
  [[nodiscard]] const std::uint64_t* row(CellId cell) const {
    return cell.value < cells_ ? &words_[cell.value * kWordsPerCell]
                               : nullptr;
  }

  /// Whether every id past the map is busy (0 > threshold).
  [[nodiscard]] bool rest() const { return rest_; }

  /// Whether (cell, bin of week) is busy.
  [[nodiscard]] bool busy(CellId cell, int bin_of_week) const {
    const std::uint64_t* r = row(cell);
    if (r == nullptr) return rest_;
    const auto bin = static_cast<std::size_t>(bin_of_week);
    return ((r[bin / 64] >> (bin % 64)) & 1U) != 0;
  }

 private:
  std::size_t cells_ = 0;
  double threshold_ = kBusyPrbThreshold;
  bool rest_ = false;
  std::vector<std::uint64_t> words_;
};

/// Per-car busy-time share.
struct CarBusyShare {
  CarId car;
  double share = 0;                ///< busy seconds / connected seconds, [0,1]
  time::Seconds connected = 0;     ///< total connected seconds (full durations)

  friend bool operator==(const CarBusyShare&, const CarBusyShare&) = default;
};

/// Output of the busy-time analysis.
struct BusyTime {
  std::vector<CarBusyShare> per_car;
  /// Distribution of shares across cars.
  stats::EmpiricalDistribution shares;
  /// Fraction of cars with share > 0.5 (paper: ~2.4%).
  double fraction_over_half = 0;
  /// Fraction of cars with share >= 0.95 (paper: ~1% "all their time";
  /// Fig 7b's top bucket).
  double fraction_all = 0;

  friend bool operator==(const BusyTime&, const BusyTime&) = default;
};

/// Computes each car's busy share. Connections are split across 15-minute
/// bins; each slice counts as busy iff `load.busy(cell, bin, threshold)`,
/// read from a BusyMap of `load` built for the call.
[[nodiscard]] BusyTime analyze_busy_time(
    const cdr::Dataset& dataset, const CellLoad& load,
    double threshold = kBusyPrbThreshold);

}  // namespace ccms::core
