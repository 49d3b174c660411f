// Cell load: the one grid every busy-cell analysis reads, and the
// background (non-car) model that fills it.
//
// Busy-cell classification is central to the paper: Table 2 counts a car's
// time "in cells with average U_PRB > 80% for those 15-minute bins", Fig 7
// plots time-in-busy-cells deciles, and Fig 11 clusters cells whose weekly
// average PRB utilisation is >= 70%. All of them read one quantity, average
// U_PRB per (cell, 15-minute bin of the week), held by CellLoad as one
// shared, cell-major cells x 672 float grid. The grid comes from
// background_load (the simulator's model), sim::measured_load (background
// plus the cars' own traffic), core::estimate_load (CDRs alone) or an
// operator's measured inventory (CellLoad::from_profiles).
//
// The cars themselves contribute little background load (CDRs carry no
// volumes), so background_load models U_PRB as an exogenous weekly profile
// per cell:
//
//   U(cell, bin) = clamp(base(class) * diurnal(class, hour) * weekend(class,
//                  day) * cell_scale * (1 + jitter), 0, 1)
//
// where cell_scale is a per-cell lognormal factor and a fraction of downtown
// cells get an extra "hot" boost, producing the small population of
// persistently busy radios the paper studies.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/cell.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/time.h"

namespace ccms::net {

/// Tunables of the background load model.
struct LoadModelConfig {
  /// Base utilisation per GeoClass {downtown, suburban, highway, rural}.
  std::array<double, kGeoClassCount> base = {0.50, 0.27, 0.30, 0.10};
  /// Log-space sigma of the per-cell scale factor.
  double cell_scale_sigma = 0.28;
  /// Fraction of cells per class that are persistently hot (cross the
  /// busy threshold during peak bins) — real networks have hot spots in
  /// every geography, not just the urban core.
  std::array<double, kGeoClassCount> hot_fraction = {0.50, 0.10, 0.12, 0.0};
  /// Multiplier applied to hot cells' base, per class (suburban/highway
  /// bases are low, so their hot spots need a larger boost to cross 80%).
  std::array<double, kGeoClassCount> hot_boost = {1.60, 2.60, 2.30, 1.0};
  /// Fraction of *stations* per class that are super-hot: every sector runs
  /// near saturation through all waking hours (stadium, transit hub, dense
  /// venue). Cars living at such sites spend ~all their connected time on
  /// busy radios — Fig 7's ~1% tail.
  std::array<double, kGeoClassCount> superhot_fraction = {0.08, 0.007, 0.02,
                                                          0.0};
  /// Boost applied to super-hot stations' cells.
  std::array<double, kGeoClassCount> superhot_boost = {2.30, 3.60, 3.20, 1.0};
  /// Radius (as a fraction of the grid half-diagonal) of the saturated urban
  /// core: every station inside is super-hot. The contiguity is what lets a
  /// core-resident car spend effectively *all* its connected time on busy
  /// radios (Fig 7's ~1% tail) - every cell it can reach is congested.
  double core_radius = 0.05;
  /// Uniform per-bin noise amplitude (+- this fraction).
  double jitter = 0.05;
};

/// Default busy-cell threshold: §4.3 classifies a (cell, 15-min bin) as busy
/// when its average U_PRB exceeds 80%.
inline constexpr double kBusyPrbThreshold = 0.80;

/// Average U_PRB per cell per 15-minute bin of the week: one immutable,
/// cell-major grid of cell_count() x 672 floats (Monday 00:00 first).
/// Copies share the grid, so handing the simulator's background to the
/// analyses copies no bytes.
class CellLoad {
 public:
  CellLoad() = default;

  /// Adopts a flat cell-major grid: grid[cell * 672 + bin]. Throws
  /// std::invalid_argument unless its size is a whole number of weeks.
  explicit CellLoad(std::vector<float> grid);

  /// Adopts per-cell rows: profiles[cell.value] has exactly 672 values.
  /// Throws std::invalid_argument on a row of any other length.
  [[nodiscard]] static CellLoad from_profiles(
      std::vector<std::vector<float>> profiles);

  /// Shares `background`'s grid: the same as copying it.
  [[nodiscard]] static CellLoad from_background(const CellLoad& background) {
    return background;
  }

  [[nodiscard]] std::size_t cell_count() const { return cells_; }

  /// Average utilisation of `cell` in bin-of-week `bin` (0 for unknown
  /// cells, treating them as never busy).
  [[nodiscard]] double at(CellId cell, int bin_of_week) const {
    if (cell.value >= cells_) return 0.0;
    return (*grid_)[offset(cell) + static_cast<std::size_t>(bin_of_week) %
                                       time::kBins15PerWeek];
  }

  /// Utilisation at an absolute study time.
  [[nodiscard]] double at_time(CellId cell, time::Seconds t) const {
    return at(cell, time::bin15_of_week(t));
  }

  /// Whether (cell, bin) counts as busy under `threshold`.
  [[nodiscard]] bool busy(CellId cell, int bin_of_week,
                          double threshold = kBusyPrbThreshold) const {
    return at(cell, bin_of_week) > threshold;
  }

  /// Whole weekly profile of one cell (672 values; empty for unknown cells).
  [[nodiscard]] std::span<const float> profile(CellId cell) const {
    if (cell.value >= cells_) return {};
    return std::span<const float>(*grid_).subspan(offset(cell),
                                                  time::kBins15PerWeek);
  }

  /// Mean utilisation over the whole week (0 for unknown cells).
  [[nodiscard]] double weekly_mean(CellId cell) const;

 private:
  static std::size_t offset(CellId cell) {
    return static_cast<std::size_t>(cell.value) * time::kBins15PerWeek;
  }

  std::shared_ptr<const std::vector<float>> grid_;
  std::size_t cells_ = 0;
};

/// Builds the background profiles of every cell of `topology`.
/// Deterministic given `rng`.
[[nodiscard]] CellLoad background_load(const Topology& topology,
                                       const LoadModelConfig& config,
                                       util::Rng& rng);

/// The deterministic diurnal multiplier for a geography class at a given
/// hour of day (0..23) and weekday. Exposed for tests and for the PRB
/// saturation experiment (Fig 1), which needs the same "average day" shape.
[[nodiscard]] double diurnal_multiplier(GeoClass geo, int hour,
                                        time::Weekday day);

}  // namespace ccms::net
