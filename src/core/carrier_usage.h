// Frequency band usage — Table 3 (§4.6).
//
// Per carrier: the percentage of cars that connected to it at least once
// over the study, and the percentage of total connected time spent on it.
// The paper finds C1-C4 reachable by effectively the whole population
// (98.7 / 89.2 / 98.7 / 80.8 %), C5 by almost nobody (0.006%), and C3+C4
// carrying ~75% of connected time.
#pragma once

#include <array>

#include "cdr/dataset.h"
#include "net/cell.h"

namespace ccms::core {

/// Output of the carrier-usage analysis.
struct CarrierUsage {
  /// Fraction of cars (with >=1 record) that ever connected per carrier.
  std::array<double, net::kCarrierCount> cars_fraction{};
  /// Fraction of total connected seconds per carrier (sums to 1).
  std::array<double, net::kCarrierCount> time_fraction{};
  /// Absolute connected seconds per carrier.
  std::array<double, net::kCarrierCount> seconds{};
  std::size_t car_count = 0;

  friend bool operator==(const CarrierUsage&, const CarrierUsage&) = default;
};

/// Runs the analysis; the carrier of each record comes from joining the
/// cell table.
[[nodiscard]] CarrierUsage analyze_carrier_usage(const cdr::Dataset& dataset,
                                                 const net::CellTable& cells);

}  // namespace ccms::core
