#include "core/cell_sessions.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cdr/clean.h"
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

CellSessionStats summarize_cell_sessions(
    const stats::EmpiricalDistribution& durations, std::int32_t cap) {
  CellSessionStats result;
  result.cap = cap;
  if (durations.empty()) return result;
  std::int64_t truncated_sum = 0;
  for (std::size_t i = 0; i < durations.values().size(); ++i) {
    const auto v = static_cast<std::int32_t>(durations.values()[i]);
    truncated_sum += std::int64_t{cdr::truncated_duration(v, cap)} *
                     static_cast<std::int64_t>(durations.counts()[i]);
  }
  result.median = durations.median();
  result.mean_full = durations.mean();
  result.mean_truncated = static_cast<double>(truncated_sum) /
                          static_cast<double>(durations.size());
  result.cdf_at_cap = durations.cdf(cap);
  return result;
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

  // The cell's records in (start, car) order: ByCellThenStart is a total
  // order, so the rows and their connections come out the same for any
  // storage order of the dataset.
  std::vector<cdr::Connection> conns;
  for (const cdr::Connection& conn : dataset.all()) {
    if (conn.cell == cell) conns.push_back(conn);
  }
  std::sort(conns.begin(), conns.end(), cdr::ByCellThenStart{});

  for (const cdr::Connection& conn : conns) {
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

  // Distinct (cell, car) pairs active on the day, as (cell << 32) | car.
  std::vector<std::uint64_t> pairs;
  for (const cdr::Connection& conn : dataset.all()) {
    if (conn.start < day_end && conn.end() > day_start) {
      pairs.push_back((static_cast<std::uint64_t>(conn.cell.value) << 32) |
                      conn.car.value);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // Cells ascend, and only a strictly larger count replaces the best, so a
  // tie goes to the lowest cell id.
  BusiestCell best;
  std::size_t i = 0;
  while (i < pairs.size()) {
    const auto cell = static_cast<std::uint32_t>(pairs[i] >> 32);
    std::size_t j = i;
    while (j < pairs.size() &&
           static_cast<std::uint32_t>(pairs[j] >> 32) == cell) {
      ++j;
    }
    if (j - i > best.distinct_cars) {
      best.distinct_cars = j - i;
      best.cell = CellId{cell};
    }
    i = j;
  }
  return best;
}

}  // namespace ccms::core
