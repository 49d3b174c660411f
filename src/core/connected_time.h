// Macro-level temporal behaviour — Fig 3 (§4.1).
//
// Per car: total time connected to the network as a fraction of the study
// period, computed as the union of its connection intervals (so overlapping
// handover legs are not double-counted), in two variants: full durations as
// reported by the CDRs, and durations truncated at 600 s per connection.
// The paper reports means of ~8% (full) and ~4% (truncated), and p99.5 of
// ~27% / ~15%.
#pragma once

#include "cdr/dataset.h"
#include "stats/quantile.h"

namespace ccms::core {

/// Output of the connected-time analysis.
struct ConnectedTime {
  /// Per-car fraction of the study spent connected (cars with >=1 record).
  stats::EmpiricalDistribution full;
  stats::EmpiricalDistribution truncated;

  double mean_full = 0;
  double mean_truncated = 0;
  double p995_full = 0;
  double p995_truncated = 0;

  /// Convenience: fraction -> hours over the whole study.
  [[nodiscard]] double to_hours(double fraction) const {
    return fraction * study_days * 24.0;
  }
  int study_days = 0;

  friend bool operator==(const ConnectedTime&, const ConnectedTime&) = default;
};

/// Runs the analysis over a finalized (already cleaned) dataset.
/// `truncation_cap` is the per-connection cap of the truncated variant.
[[nodiscard]] ConnectedTime analyze_connected_time(
    const cdr::Dataset& dataset, std::int32_t truncation_cap = 600);

/// Builds the report from per-car connected fractions (one entry per car
/// with >= 1 record, any order). Shared by the batch analysis above and the
/// ccms::stream snapshot, so both derive Fig 3 identically.
[[nodiscard]] ConnectedTime connected_time_from_fractions(
    std::vector<double> full, std::vector<double> truncated, int study_days);

}  // namespace ccms::core
