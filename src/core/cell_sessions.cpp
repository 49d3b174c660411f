#include "core/cell_sessions.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/passes.h"

namespace ccms::core {

CellSessionStats analyze_cell_sessions(const cdr::Dataset& dataset,
                                       std::int32_t truncation_cap) {
  CellSessionsAccumulator acc(truncation_cap);
  dataset.for_each_car([&](CarId car, std::span<const cdr::Connection> conns) {
    acc.add_car(car, conns);
  });
  return std::move(acc).finalize();
}

CellDayTimeline cell_day_timeline(const cdr::Dataset& dataset, CellId cell,
                                  int day) {
  CellDayTimeline result;
  result.cell = cell;
  result.day = day;
  const time::Seconds day_start =
      static_cast<time::Seconds>(day) * time::kSecondsPerDay;
  const time::Seconds day_end = day_start + time::kSecondsPerDay;

  std::unordered_map<std::uint32_t, std::size_t> row_of_car;
  std::array<std::unordered_set<std::uint32_t>, time::kBins15PerDay>
      cars_in_bin;

  dataset.for_each_cell(
      [&](CellId c, std::span<const std::uint32_t> indices) {
        if (c != cell) return;
        for (const std::uint32_t idx : indices) {
          const cdr::Connection& conn = dataset.at(idx);
          const time::Interval clipped{std::max(conn.start, day_start),
                                       std::min(conn.end(), day_end)};
          if (clipped.empty()) continue;
          auto [it, inserted] =
              row_of_car.try_emplace(conn.car.value, result.cars.size());
          if (inserted) {
            result.cars.push_back({conn.car, {}});
          }
          result.cars[it->second].connections.push_back(clipped);

          const int b0 = static_cast<int>((clipped.start - day_start) /
                                          time::kSecondsPerBin15);
          const int b1 = static_cast<int>((clipped.end - 1 - day_start) /
                                          time::kSecondsPerBin15);
          for (int b = std::max(0, b0);
               b <= std::min(time::kBins15PerDay - 1, b1); ++b) {
            cars_in_bin[static_cast<std::size_t>(b)].insert(conn.car.value);
          }
        }
      });

  for (int b = 0; b < time::kBins15PerDay; ++b) {
    const int count =
        static_cast<int>(cars_in_bin[static_cast<std::size_t>(b)].size());
    if (count > result.max_concurrent) {
      result.max_concurrent = count;
      result.max_concurrent_bin = b;
    }
  }
  return result;
}

BusiestCell busiest_cell_by_cars(const cdr::Dataset& dataset, int day) {
  const time::Seconds day_start =
      static_cast<time::Seconds>(day) * time::kSecondsPerDay;
  const time::Seconds day_end = day_start + time::kSecondsPerDay;

  BusiestCell best;
  dataset.for_each_cell([&](CellId cell,
                            std::span<const std::uint32_t> indices) {
    std::unordered_set<std::uint32_t> cars;
    for (const std::uint32_t idx : indices) {
      const cdr::Connection& conn = dataset.at(idx);
      if (conn.start < day_end && conn.end() > day_start) {
        cars.insert(conn.car.value);
      }
    }
    if (cars.size() > best.distinct_cars) {
      best.distinct_cars = cars.size();
      best.cell = cell;
    }
  });
  return best;
}

}  // namespace ccms::core
