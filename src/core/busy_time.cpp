#include "core/busy_time.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/passes.h"

namespace ccms::core {

BusyMap::BusyMap(const CellLoad& load, double threshold)
    : cells_(load.cell_count()),
      threshold_(threshold),
      rest_(0.0 > threshold),
      words_(load.cell_count() * kWordsPerCell, 0) {}

BusyMap BusyMap::build(const CellLoad& load, double threshold) {
  BusyMap map(load, threshold);
  map.fill_rows(load, 0, map.cell_count());
  return map;
}

void BusyMap::fill_rows(const CellLoad& load, std::size_t first,
                        std::size_t last) {
  for (std::size_t c = first; c < last; ++c) {
    const std::span<const float> profile =
        load.profile(CellId{static_cast<std::uint32_t>(c)});
    for (std::size_t w = 0; w < kWordsPerCell; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(lo + 64, profile.size());
      std::uint64_t word = 0;
      for (std::size_t b = lo; b < hi; ++b) {
        // CellLoad::busy's compare: the float widened to double, then `>`.
        word |= std::uint64_t{static_cast<double>(profile[b]) > threshold_}
                << (b - lo);
      }
      words_[c * kWordsPerCell + w] = word;
    }
  }
}

BusyTime analyze_busy_time(const cdr::Dataset& dataset, const CellLoad& load,
                           double threshold) {
  const BusyMap map = BusyMap::build(load, threshold);
  BusyTimeAccumulator acc(&map);
  dataset.for_each_car(
      [&](CarId car, std::span<const cdr::Connection> connections) {
        acc.add_car(car, connections);
      });
  return std::move(acc).finalize();
}

}  // namespace ccms::core
