// Time spent in busy cells — Fig 7 (§4.3).
//
// Per car: the fraction of its connected time spent in (cell, 15-minute bin)
// combinations whose average U_PRB exceeds the busy threshold (80%). The
// paper reports that most cars spend little time on busy radios, ~2.4% spend
// more than half their connected time there, and ~1% spend all of it there.
#pragma once

#include <vector>

#include "cdr/dataset.h"
#include "core/load_view.h"
#include "stats/quantile.h"

namespace ccms::core {

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
/// bins; each slice counts as busy iff `load.busy(cell, bin, threshold)`.
[[nodiscard]] BusyTime analyze_busy_time(
    const cdr::Dataset& dataset, const CellLoad& load,
    double threshold = kBusyPrbThreshold);

}  // namespace ccms::core
