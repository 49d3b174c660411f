// Daily presence analysis — Fig 2 and Table 1.
//
// Per study day: the percentage of the fleet that appeared on the network
// and the percentage of cells with at least one car, where the cell
// denominator is (as in §4) "all the cells that had cars connect to them in
// our data set". Trend lines are the OLS fits Fig 2 annotates with their
// equations and R².
#pragma once

#include <array>
#include <vector>

#include "cdr/dataset.h"
#include "stats/descriptive.h"
#include "stats/regression.h"

namespace ccms::core {

/// Mean / sample standard deviation of a daily percentage, per weekday and
/// overall (Table 1's cell format).
struct PresenceStat {
  double mean = 0;
  double stdev = 0;

  friend bool operator==(const PresenceStat&, const PresenceStat&) = default;
};

/// Output of the presence analysis.
struct DailyPresence {
  /// Fraction in [0,1] of the fleet seen on each study day.
  std::vector<double> cars_fraction;
  /// Fraction in [0,1] of ever-touched cells seen on each study day.
  std::vector<double> cells_fraction;

  /// OLS fits over the day index (Fig 2's trend lines).
  stats::LinearFit cars_trend;
  stats::LinearFit cells_trend;

  /// Table 1 rows: Monday..Sunday plus the overall row.
  std::array<PresenceStat, 7> cars_by_weekday;
  std::array<PresenceStat, 7> cells_by_weekday;
  PresenceStat cars_overall;
  PresenceStat cells_overall;

  /// Denominators.
  std::uint32_t fleet_size = 0;
  std::size_t ever_touched_cells = 0;

  friend bool operator==(const DailyPresence&, const DailyPresence&) = default;
};

/// Runs the analysis. A car/cell counts as present on every day its
/// connection intervals overlap. Requires a finalized dataset.
[[nodiscard]] DailyPresence analyze_presence(const cdr::Dataset& dataset);

/// Fills the derived fields (weekday/overall stats, trend lines) from the
/// daily fraction series, which must already be set. Day 0 is a Monday, as
/// everywhere. Shared by the batch analysis above and the ccms::stream
/// snapshot so both derive Table 1 / Fig 2 identically.
void summarize_presence(DailyPresence& presence);

}  // namespace ccms::core
