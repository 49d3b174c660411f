// The Fig 1 saturation experiment and FOTA download-time estimation.
//
// Fig 1: "Large downloads start at 20:45 UTC in two cells and last for
// 4 hours, consuming nearly all available resources." One greedy device per
// cell absorbs every PRB the background traffic leaves idle; the plotted
// test-day curve pins at ~100% while the cell's average day keeps its
// diurnal shape.
#pragma once

#include <vector>

#include "net/cell.h"
#include "net/load.h"
#include "net/prb.h"

namespace ccms::sim {

/// Start bin of the paper's test: 20:45 (bin 83 of 96).
inline constexpr int kPaperTestStartBin = 83;
/// Duration of the paper's test: 4 hours = 16 fifteen-minute bins.
inline constexpr int kPaperTestBins = 16;

/// Result for one cell of the saturation experiment.
struct SaturationResult {
  CellId cell;
  /// Weekday-average background utilisation per 15-minute bin (96 values) —
  /// the "average" curves of Fig 1.
  std::vector<double> average_day;
  /// Utilisation on the test day with the greedy download active — the
  /// "test" curves of Fig 1.
  std::vector<double> test_day;
  /// Megabytes the greedy flow received over the test window.
  double delivered_mb = 0;
  /// Peak utilisation reached during the test window.
  double peak_utilization = 0;
};

/// Runs the Fig 1 experiment on `cell`: a single greedy download starting at
/// `start_bin` for `duration_bins` bins, against the cell's weekday-average
/// background day.
[[nodiscard]] SaturationResult saturation_experiment(
    const net::CellLoad& background, const net::CellTable& cells,
    CellId cell, int start_bin = kPaperTestStartBin,
    int duration_bins = kPaperTestBins);

/// Picks `count` cells suitable for the experiment: moderately-loaded cells
/// (weekly mean in [lo, hi]) so that the saturation effect is visible, as in
/// the paper's two test cells.
[[nodiscard]] std::vector<CellId> pick_test_cells(
    const net::CellLoad& background, const net::CellTable& cells,
    int count, double lo = 0.35, double hi = 0.65);

/// Seconds needed to push a FOTA image of `megabytes` through `cell`
/// starting at day bin `start_bin` (uses the weekday-average background).
/// Negative if it cannot complete within a week.
[[nodiscard]] double fota_download_seconds(const net::CellLoad& background,
                                           const net::CellTable& cells,
                                           CellId cell, double megabytes,
                                           int start_bin);

/// Weekday-average (Mon-Fri) background day of one cell, 96 bins.
[[nodiscard]] std::vector<double> weekday_average_day(
    const net::CellLoad& background, CellId cell);

// ---------------------------------------------------------------------------
// Managed FOTA campaign planning — the scenario §4.3 sketches:
//   "rare cars would be prioritized over the limited FOTA campaign window,
//    and common cars would be perhaps randomized or scheduled depending on
//    the typical time they connect. In particular, cars that typically
//    appear during busy hours will likely need special treatment."
// ---------------------------------------------------------------------------

/// Delivery policy assigned to one car.
enum class DeliveryPolicy : int {
  kImmediate = 0,           ///< rare car: push whenever it appears
  kRandomizedOffCommute = 1, ///< common non-busy car: evening slot
  kOffPeakWindow = 2,        ///< busy-hour car: strict overnight window
};

/// Short policy name.
[[nodiscard]] const char* name(DeliveryPolicy policy);

/// What the planner needs to know about one car (assembled from the core
/// analyses: days on network, busy-time share, and the home cell).
struct FotaCarInput {
  CarId car;
  int days_on_network = 0;
  double busy_share = 0;  ///< fraction of connected time in busy cells
  CellId home_cell;       ///< cell the overnight download would ride on
};

/// Campaign knobs.
struct CampaignConfig {
  double update_mb = 500;        ///< FOTA image size
  int rare_days = 10;            ///< Table 2's first rare/common boundary
  double busy_share_special = 0.35;  ///< above this, off-peak treatment
  int naive_bin = 76;            ///< 19:00 — the unmanaged baseline start
  int immediate_bin = 68;        ///< 17:00 — typical appearance of rare cars
  int randomized_bin = 86;       ///< 21:30 — post-commute slot
  int offpeak_bin = 8;           ///< 02:00 — the protected window
};

/// Plan for one car.
struct CarPlan {
  CarId car;
  DeliveryPolicy policy = DeliveryPolicy::kRandomizedOffCommute;
  int start_bin = 0;
  /// Estimated download wall time at the chosen start (s); negative if the
  /// home cell is saturated and the download must be deferred.
  double planned_seconds = -1;
  /// Same download started at the naive baseline bin.
  double naive_seconds = -1;
};

/// The whole campaign.
struct CampaignPlan {
  std::vector<CarPlan> cars;
  /// Cars per policy, indexed by DeliveryPolicy.
  std::array<std::size_t, 3> policy_counts{};
  /// Total device-hours of downloading, naive vs planned (finished cars).
  double naive_hours = 0;
  double planned_hours = 0;
  /// Cars whose home cell cannot complete the download within a week.
  std::size_t deferred = 0;

  [[nodiscard]] double saved_fraction() const {
    return naive_hours > 0 ? (naive_hours - planned_hours) / naive_hours : 0;
  }
};

/// Assigns policies and estimates download times for every car.
[[nodiscard]] CampaignPlan plan_campaign(std::span<const FotaCarInput> cars,
                                         const net::CellLoad& background,
                                         const net::CellTable& cells,
                                         const CampaignConfig& config = {});

}  // namespace ccms::sim
