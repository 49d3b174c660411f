// Car segmentation — Table 2 (§4.3).
//
// Two orthogonal classifications combined:
//   - rare vs common: cars seen on at most R days of the study (the paper
//     uses both R=10 and R=30, motivated by Fig 6's histogram shape);
//   - busy vs non-busy vs both: a car "typically connects in busy hours" if
//     65% or more of its connected time is in busy (cell, bin) combinations,
//     "non-busy" if 35% or less, otherwise "both".
//
// The result is the 2x3 percentage table the paper proposes as the basis of
// managed FOTA campaigns (rare cars prioritised; busy-hour cars handled
// specially).
#pragma once

#include <array>
#include <span>

#include "core/busy_time.h"
#include "core/days_histogram.h"

namespace ccms::core {

/// Typical connection period of one car.
enum class BusyClass : int {
  kBusy = 0,     ///< >= hi_share of connected time in busy cells
  kNonBusy = 1,  ///< <= lo_share
  kBoth = 2,     ///< in between
};

/// Thresholds of the segmentation.
struct SegmentationConfig {
  int rare_days_a = 10;   ///< first rare/common boundary (Table 2 rows 1-2)
  int rare_days_b = 30;   ///< second boundary (rows 3-4)
  double hi_share = 0.65; ///< busy-typical threshold
  double lo_share = 0.35; ///< non-busy-typical threshold

  friend bool operator==(const SegmentationConfig&,
                         const SegmentationConfig&) = default;
};

/// One row of Table 2: fractions of the car population (sum = total).
struct SegmentRow {
  double busy = 0;
  double non_busy = 0;
  double both = 0;
  [[nodiscard]] double total() const { return busy + non_busy + both; }

  friend bool operator==(const SegmentRow&, const SegmentRow&) = default;
};

/// The four Table 2 rows.
struct Segmentation {
  SegmentRow rare_a;    ///< rare (<= rare_days_a)
  SegmentRow common_a;  ///< common (> rare_days_a)
  SegmentRow rare_b;
  SegmentRow common_b;
  std::size_t car_count = 0;
  SegmentationConfig config;

  friend bool operator==(const Segmentation&, const Segmentation&) = default;
};

/// Classifies one busy share.
[[nodiscard]] BusyClass classify_busy_share(double share,
                                            const SegmentationConfig& config);

/// Combines the days-on-network and busy-time analyses into Table 2.
/// `days` and `busy` must come from the same dataset (their per-car lists
/// are aligned by construction: both visit cars in ascending id order).
[[nodiscard]] Segmentation segment_cars(const DaysOnNetwork& days,
                                        const BusyTime& busy,
                                        const SegmentationConfig& config = {});

}  // namespace ccms::core
