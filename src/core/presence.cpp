#include "core/presence.h"

#include <array>

#include "core/passes.h"
#include "util/time.h"

namespace ccms::core {

namespace {

PresenceStat to_stat(const stats::Accumulator& acc) {
  return {acc.mean(), acc.stddev()};
}

/// Fills the derived fields (weekday/overall stats, trend lines) from the
/// daily fraction series. Day 0 is a Monday, as everywhere.
void summarize_presence(DailyPresence& presence) {
  std::array<stats::Accumulator, 7> cars_dow;
  std::array<stats::Accumulator, 7> cells_dow;
  stats::Accumulator cars_all;
  stats::Accumulator cells_all;

  for (std::size_t d = 0; d < presence.cars_fraction.size(); ++d) {
    const double car_frac = presence.cars_fraction[d];
    const double cell_frac = presence.cells_fraction[d];
    const auto dow = static_cast<std::size_t>(time::weekday(
        static_cast<time::Seconds>(d) * time::kSecondsPerDay));
    cars_dow[dow].add(car_frac);
    cells_dow[dow].add(cell_frac);
    cars_all.add(car_frac);
    cells_all.add(cell_frac);
  }

  for (int w = 0; w < 7; ++w) {
    presence.cars_by_weekday[static_cast<std::size_t>(w)] =
        to_stat(cars_dow[static_cast<std::size_t>(w)]);
    presence.cells_by_weekday[static_cast<std::size_t>(w)] =
        to_stat(cells_dow[static_cast<std::size_t>(w)]);
  }
  presence.cars_overall = to_stat(cars_all);
  presence.cells_overall = to_stat(cells_all);
  presence.cars_trend = stats::linear_fit_indexed(presence.cars_fraction);
  presence.cells_trend = stats::linear_fit_indexed(presence.cells_fraction);
}

}  // namespace

DailyPresence analyze_presence(const cdr::Dataset& dataset) {
  PresenceAccumulator acc(dataset.study_days());
  dataset.for_each_car(
      [&](CarId car, std::span<const cdr::Connection> connections) {
        acc.add_car(car, connections);
      });
  return acc.finalize(dataset.fleet_size());
}

DailyPresence presence_from_counts(
    std::uint32_t fleet_size, const std::vector<std::uint64_t>& cars_per_day,
    const std::unordered_map<std::uint32_t, DayBits>& cell_days) {
  const std::size_t n_days = cars_per_day.size();
  std::vector<std::uint64_t> cells_per_day(n_days, 0);
  for (const auto& [cell, bits] : cell_days) {
    for (std::size_t d = 0; d < n_days; ++d) {
      if (bits.test(static_cast<std::int64_t>(d))) ++cells_per_day[d];
    }
  }
  return presence_from_counts(fleet_size, cars_per_day, cells_per_day,
                              cell_days.size());
}

DailyPresence presence_from_counts(
    std::uint32_t fleet_size, const std::vector<std::uint64_t>& cars_per_day,
    const std::vector<std::uint64_t>& cells_per_day,
    std::size_t ever_touched_cells) {
  DailyPresence result;
  result.fleet_size = fleet_size;
  result.ever_touched_cells = ever_touched_cells;

  const std::size_t n_days = cars_per_day.size();
  result.cars_fraction.resize(n_days, 0.0);
  result.cells_fraction.resize(n_days, 0.0);
  for (std::size_t d = 0; d < n_days; ++d) {
    result.cars_fraction[d] =
        fleet_size > 0 ? static_cast<double>(cars_per_day[d]) / fleet_size
                       : 0.0;
    result.cells_fraction[d] =
        result.ever_touched_cells > 0
            ? static_cast<double>(cells_per_day[d]) /
                  static_cast<double>(result.ever_touched_cells)
            : 0.0;
  }
  summarize_presence(result);
  return result;
}

}  // namespace ccms::core
