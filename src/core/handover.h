// Spatial behaviour: handover accounting — §4.5.
//
// "To assess a lower bound on number of cells and handovers, we account for
// handovers within sessions on the network during which the longest
// connection gap is 10 minutes. We find that the most common handover is
// across base stations ... The median number of handovers is 2, 70th
// percentile is 4 and 90th percentile is 9. ... Other types of handovers are
// observed in negligible numbers, namely between radio technologies (3G/4G),
// between carriers of the same sector and between sectors of the same base
// station."
#pragma once

#include <array>
#include <cstdint>

#include "cdr/dataset.h"
#include "cdr/session.h"
#include "net/cell.h"
#include "stats/quantile.h"

namespace ccms::core {

/// Output of the handover analysis.
struct HandoverStats {
  /// Transition counts per net::HandoverType (kNone counts same-cell
  /// re-connections within a session; it is not a handover).
  std::array<std::uint64_t, net::kHandoverTypeCount> counts{};

  /// Per-session handover counts (sessions = §4.5's 10-minute-gap journeys).
  stats::EmpiricalDistribution per_session;
  double median = 0;
  double p70 = 0;
  double p90 = 0;

  /// Distinct base stations per session (the "impact will span between 3
  /// and 10 base stations" observation).
  stats::EmpiricalDistribution stations_per_session;

  std::uint64_t session_count = 0;

  [[nodiscard]] std::uint64_t total_handovers() const {
    std::uint64_t total = 0;
    for (int t = 1; t < net::kHandoverTypeCount; ++t) {
      total += counts[static_cast<std::size_t>(t)];
    }
    return total;
  }
  /// Share of one type among all handovers.
  [[nodiscard]] double share(net::HandoverType type) const {
    const auto total = total_handovers();
    return total > 0 ? static_cast<double>(
                           counts[static_cast<std::size_t>(type)]) /
                           static_cast<double>(total)
                     : 0.0;
  }

  friend bool operator==(const HandoverStats&, const HandoverStats&) = default;
};

/// Runs the analysis. `journey_gap` is the session gap (§4.5: 600 s).
[[nodiscard]] HandoverStats analyze_handovers(
    const cdr::Dataset& dataset, const net::CellTable& cells,
    time::Seconds journey_gap = cdr::kJourneyGap);

}  // namespace ccms::core
