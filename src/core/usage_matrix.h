// 24x7 usage matrices — Figs 4 and 5 (§4.2).
//
// "We encode important periods during the week in 24x7 matrices, where each
// hour of the day for 7 days is represented by a shaded box. ... By
// aggregating data from multiple weeks onto a 24x7 matrix we can take this
// hourly and daily pattern into account and find the consistent patterns in
// the noise."
//
// We also implement the predictability scoring the paper gestures at
// ("cars can be clustered according to predictability in their behavior"):
// a car's regularity is the average, over the hour-of-week cells it ever
// uses, of the fraction of study weeks in which that cell is active.
#pragma once

#include <array>
#include <span>

#include "cdr/record.h"

namespace ccms::core {

/// A 24x7 matrix of doubles: value(hour 0..23, weekday Mon=0..Sun=6).
struct Matrix24x7 {
  /// Hour-major storage: values[hour * 7 + day].
  std::array<double, 24 * 7> values{};

  [[nodiscard]] double at(int hour, int weekday) const {
    return values[static_cast<std::size_t>(hour * 7 + weekday)];
  }
  double& at(int hour, int weekday) {
    return values[static_cast<std::size_t>(hour * 7 + weekday)];
  }

  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

  /// Sum of entries where `mask` is nonzero, divided by total sum; the
  /// "fraction of this car's activity inside the masked period" measure.
  [[nodiscard]] double fraction_in(const Matrix24x7& mask) const;

  friend bool operator==(const Matrix24x7&, const Matrix24x7&) = default;
};

/// Builds a car's connection-frequency matrix: each connection adds one
/// count to every hour-of-week box it overlaps, rendered in the car's local
/// time (`tz_offset_hours`, 0 for the single-zone default).
[[nodiscard]] Matrix24x7 usage_matrix(
    std::span<const cdr::Connection> connections, int tz_offset_hours = 0);

/// Adds one connection to `m` (one count per hour-of-week box the interval
/// overlaps). The incremental form of usage_matrix, shared with the
/// ccms::stream online usage-matrix operator.
void add_connection(Matrix24x7& m, const cdr::Connection& c,
                    int tz_offset_hours = 0);

/// Fig 4's period masks (1 inside the period, 0 outside).
[[nodiscard]] Matrix24x7 commute_peak_mask();  ///< Mon-Fri 7-9 & 16-18
[[nodiscard]] Matrix24x7 network_peak_mask();  ///< every day 14-24
[[nodiscard]] Matrix24x7 weekend_mask();       ///< Sat & Sun 8-24

/// Regularity in [0,1]: 1 means every hour-of-week box the car ever uses is
/// used in every study week (a perfectly predictable commuter); ~1/weeks
/// means nothing repeats. Returns 0 for cars with no records.
[[nodiscard]] double regularity_score(
    std::span<const cdr::Connection> connections, int study_days,
    int tz_offset_hours = 0);

}  // namespace ccms::core
