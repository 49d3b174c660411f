#include "core/concurrency.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/passes.h"

namespace ccms::core {

namespace {

/// Number of times each 15-minute bin of the week occurs in a study of
/// `study_days` days starting on a Monday.
std::vector<int> bin_occurrences(int study_days) {
  std::vector<int> occurrences(time::kBins15PerWeek, 0);
  for (int d = 0; d < study_days; ++d) {
    const int dow = d % time::kDaysPerWeek;
    for (int b = 0; b < time::kBins15PerDay; ++b) {
      ++occurrences[static_cast<std::size_t>(dow * time::kBins15PerDay + b)];
    }
  }
  return occurrences;
}

}  // namespace

ConcurrencyGrid ConcurrencyGrid::build(const cdr::Dataset& dataset) {
  // Per car, the distinct (cell, absolute 15-minute bin) pairs its
  // connections straddle; deduplicated per car, then counted globally.
  ConcurrencyCountsAccumulator acc(dataset.study_days());
  dataset.for_each_car([&](CarId car, std::span<const cdr::Connection> conns) {
    acc.add_car(car, conns);
  });
  const auto [keys, counts] = std::move(acc).take_counts();
  return from_bin_counts(keys, counts, dataset.study_days());
}

ConcurrencyGrid ConcurrencyGrid::from_bin_counts(
    std::span<const std::uint64_t> keys, std::span<const std::uint64_t> counts,
    int study_days) {
  ConcurrencyGrid grid;
  grid.study_days_ = std::max(1, study_days);

  // Aggregate per (cell, bin) multiplicity into per-cell weekly averages.
  const std::vector<int> occurrences = bin_occurrences(grid.study_days_);

  std::size_t i = 0;
  while (i < keys.size()) {
    const auto cell_value = static_cast<std::uint32_t>(keys[i] >> 24);
    CellConcurrency profile;
    profile.cell = CellId{cell_value};
    std::vector<std::int64_t> week_totals(time::kBins15PerWeek, 0);

    while (i < keys.size() &&
           static_cast<std::uint32_t>(keys[i] >> 24) == cell_value) {
      const auto abs_bin =
          static_cast<std::int64_t>(keys[i] & 0xFFFFFFu);
      const auto count = static_cast<std::int64_t>(counts[i]);
      ++i;
      const int day = static_cast<int>(abs_bin / time::kBins15PerDay);
      const int dow = day % time::kDaysPerWeek;
      const int bin_of_day =
          static_cast<int>(abs_bin % time::kBins15PerDay);
      week_totals[static_cast<std::size_t>(dow * time::kBins15PerDay +
                                           bin_of_day)] += count;
      profile.observations += static_cast<std::uint64_t>(count);
    }

    profile.weekly.assign(time::kBins15PerWeek, 0.0);
    for (int b = 0; b < time::kBins15PerWeek; ++b) {
      const auto idx = static_cast<std::size_t>(b);
      profile.weekly[idx] =
          occurrences[idx] > 0
              ? static_cast<double>(week_totals[idx]) / occurrences[idx]
              : 0.0;
    }
    profile.daily.assign(time::kBins15PerDay, 0.0);
    for (int b = 0; b < time::kBins15PerDay; ++b) {
      std::int64_t total = 0;
      int occ = 0;
      for (int d = 0; d < time::kDaysPerWeek; ++d) {
        const auto idx =
            static_cast<std::size_t>(d * time::kBins15PerDay + b);
        total += week_totals[idx];
        occ += occurrences[idx];
      }
      profile.daily[static_cast<std::size_t>(b)] =
          occ > 0 ? static_cast<double>(total) / occ : 0.0;
    }

    double sum = 0;
    for (const double v : profile.weekly) {
      profile.peak = std::max(profile.peak, v);
      sum += v;
    }
    profile.mean = sum / time::kBins15PerWeek;
    grid.cells_.push_back(std::move(profile));
  }

  return grid;
}

const CellConcurrency* ConcurrencyGrid::find(CellId cell) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), cell,
      [](const CellConcurrency& p, CellId c) { return p.cell < c; });
  if (it != cells_.end() && it->cell == cell) return &*it;
  return nullptr;
}

}  // namespace ccms::core
