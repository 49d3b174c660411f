#include "net/load.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ccms::net {

namespace {

// Hourly shape templates, one multiplier per hour of day. Values are
// relative to the class base; the "network peak" (14-24 local, per Fig 4)
// is the high plateau for every class, with class-specific morning bumps.
constexpr std::array<std::array<double, 24>, kGeoClassCount> kHourShape = {{
    // downtown: office + evening entertainment; hot 10:00-23:00
    {{0.35, 0.28, 0.24, 0.22, 0.24, 0.32, 0.48, 0.68, 0.85, 0.95, 1.02, 1.08,
      1.10, 1.10, 1.15, 1.18, 1.22, 1.28, 1.30, 1.28, 1.24, 1.18, 0.95, 0.60}},
    // suburban: residential; evening-heavy
    {{0.38, 0.30, 0.26, 0.25, 0.27, 0.35, 0.55, 0.75, 0.80, 0.78, 0.80, 0.85,
      0.88, 0.88, 0.92, 1.00, 1.10, 1.20, 1.28, 1.30, 1.28, 1.20, 0.95, 0.60}},
    // highway: commute bumps morning and evening
    {{0.30, 0.25, 0.22, 0.22, 0.28, 0.45, 0.80, 1.10, 1.05, 0.85, 0.80, 0.82,
      0.85, 0.85, 0.90, 1.00, 1.18, 1.30, 1.22, 1.05, 0.95, 0.85, 0.65, 0.45}},
    // rural: flat and low
    {{0.40, 0.35, 0.32, 0.32, 0.35, 0.45, 0.60, 0.72, 0.78, 0.80, 0.82, 0.85,
      0.86, 0.86, 0.88, 0.92, 0.98, 1.05, 1.10, 1.08, 1.00, 0.88, 0.70, 0.52}},
}};

// Weekend multiplier per class: downtown offices empty out a bit, suburban
// and rural see slightly more daytime traffic.
constexpr std::array<double, kGeoClassCount> kWeekendFactor = {0.88, 1.05,
                                                               0.90, 1.02};

}  // namespace

double diurnal_multiplier(GeoClass geo, int hour, time::Weekday day) {
  const auto g = static_cast<std::size_t>(geo);
  const double base = kHourShape[g][static_cast<std::size_t>(hour)];
  return time::is_weekend(day) ? base * kWeekendFactor[g] : base;
}

CellLoad::CellLoad(std::vector<float> grid)
    : cells_(grid.size() / time::kBins15PerWeek) {
  if (grid.size() % time::kBins15PerWeek != 0) {
    throw std::invalid_argument(
        "CellLoad: grid of " + std::to_string(grid.size()) +
        " values is not whole 672-bin weeks");
  }
  grid_ = std::make_shared<const std::vector<float>>(std::move(grid));
}

CellLoad CellLoad::from_profiles(std::vector<std::vector<float>> profiles) {
  std::vector<float> grid;
  grid.reserve(profiles.size() * time::kBins15PerWeek);
  for (const std::vector<float>& row : profiles) {
    if (row.size() != time::kBins15PerWeek) {
      throw std::invalid_argument(
          "CellLoad::from_profiles: row of " + std::to_string(row.size()) +
          " values, want 672");
    }
    grid.insert(grid.end(), row.begin(), row.end());
  }
  return CellLoad(std::move(grid));
}

double CellLoad::weekly_mean(CellId cell) const {
  if (cell.value >= cells_) return 0.0;
  double sum = 0;
  for (const float v : profile(cell)) sum += v;
  return sum / time::kBins15PerWeek;
}

CellLoad background_load(const Topology& topology,
                         const LoadModelConfig& config, util::Rng& rng) {
  const CellTable& cells = topology.cells();
  // Saturated-core geometry: stations within core_radius of the grid centre.
  const auto& tc = topology.config();
  const double cx = (tc.grid_width - 1) / 2.0 * tc.spacing_km;
  const double cy = (tc.grid_height - 1) / 2.0 * tc.spacing_km;
  const double half_diag = std::max(1.0, std::hypot(cx, cy));
  std::vector<float> grid(cells.size() * time::kBins15PerWeek);
  for (const CellInfo& cell : cells.all()) {
    util::Rng cell_rng = rng.split(0xBACC0000ULL + cell.id.value);
    const auto g = static_cast<std::size_t>(cell.geo);

    double scale =
        std::exp(config.cell_scale_sigma * cell_rng.normal());
    // Hot spots are a property of the *site sector* (venue, mall, junction),
    // not of a single carrier: all cells of a hot sector run hot. This is
    // what lets a car whose habitual locations are hot spend nearly all its
    // connected time on busy radios (Fig 7's ~1% tail).
    util::Rng sector_rng =
        rng.split(0x5EC70000ULL +
                  static_cast<std::uint64_t>(cell.station.value) *
                      kSectorsPerStation +
                  cell.sector.value);
    util::Rng station_rng =
        rng.split(0x57A70000ULL + cell.station.value);
    const Position sp = topology.station_position(cell.station);
    const bool in_core =
        std::hypot(sp.x - cx, sp.y - cy) / half_diag <= config.core_radius;
    const bool superhot =
        in_core || station_rng.bernoulli(config.superhot_fraction[g]);
    if (superhot) {
      // Saturated sites do not get a lucky quiet carrier: the congestion is
      // sitewide, so the per-cell scale never drops below nominal.
      scale = std::max(scale, 1.0) * config.superhot_boost[g];
    } else if (sector_rng.bernoulli(config.hot_fraction[g])) {
      scale *= config.hot_boost[g];
    }

    float* profile =
        grid.data() +
        static_cast<std::size_t>(cell.id.value) * time::kBins15PerWeek;
    for (int bin = 0; bin < time::kBins15PerWeek; ++bin) {
      const int day = bin / time::kBins15PerDay;
      const int bin_of_day = bin % time::kBins15PerDay;
      const int hour = bin_of_day / 4;
      const int next_hour = (hour + 1) % 24;
      const double frac = (bin_of_day % 4) / 4.0;
      const auto wd = static_cast<time::Weekday>(day);
      // Linear interpolation between hourly template points keeps the
      // 15-minute curve smooth, as real PRB telemetry is.
      const double m0 = diurnal_multiplier(cell.geo, hour, wd);
      const double m1 = diurnal_multiplier(cell.geo, next_hour, wd);
      double diurnal = m0 + (m1 - m0) * frac;
      // Super-hot sites never cool off during waking hours: venues with
      // around-the-clock demand. Their diurnal floor keeps them above the
      // busy threshold in every bin a car is realistically awake in.
      if (superhot) diurnal = std::max(diurnal, 0.85);
      const double jitter =
          1.0 + config.jitter * (2.0 * cell_rng.uniform() - 1.0);
      const double u = config.base[g] * diurnal * scale * jitter;
      profile[bin] = static_cast<float>(std::clamp(u, 0.0, 1.0));
    }
  }
  return CellLoad(std::move(grid));
}

}  // namespace ccms::net
