// Days-on-network histogram — Fig 6 (§4.3).
//
// "we can use the number of days over the study period that cars were
// connected ... It appears that 10 days is the point under which a sharp
// drop off exists, and past 30 days is where increasing trend begins."
#pragma once

#include <vector>

#include "cdr/dataset.h"
#include "stats/histogram.h"

namespace ccms::core {

/// Output of the days-on-network analysis.
struct DaysOnNetwork {
  /// Number of distinct study days each car (with >=1 record) appeared on,
  /// aligned with `cars`.
  std::vector<int> days_per_car;
  std::vector<CarId> cars;

  /// One-day-wide histogram over [0, study_days].
  stats::Histogram histogram{0, 1, 1};

  /// Detected drop-off knee (bin index ~ number of days), -1 if none: the
  /// data-derived counterpart of the paper's eyeballed 10-day boundary.
  int knee_days = -1;

  friend bool operator==(const DaysOnNetwork&, const DaysOnNetwork&) = default;
};

/// Runs the analysis over a finalized dataset. A car is "on the network" on
/// every day one of its connection intervals overlaps.
[[nodiscard]] DaysOnNetwork analyze_days_on_network(const cdr::Dataset& dataset);

/// Builds the report from already-counted days per car (`cars` and
/// `days_per_car` aligned, ascending by car id). Shared by the batch
/// analysis above and the ccms::stream snapshot so both derive Fig 6
/// identically.
[[nodiscard]] DaysOnNetwork days_on_network_from_counts(
    std::vector<CarId> cars, std::vector<int> days_per_car, int study_days);

}  // namespace ccms::core
