#include "sim/measured_load.h"

#include <algorithm>

namespace ccms::sim {

core::CellLoad measured_load(const net::CellLoad& background,
                             const cdr::Dataset& cleaned,
                             double car_prb_share) {
  const core::ConcurrencyGrid concurrency =
      core::ConcurrencyGrid::build(cleaned);

  // The background grid, copied, with the fleet's share added on top.
  const std::size_t cell_count = background.cell_count();
  std::vector<float> grid;
  grid.reserve(cell_count * time::kBins15PerWeek);
  for (std::size_t i = 0; i < cell_count; ++i) {
    const auto bg = background.profile(CellId{static_cast<std::uint32_t>(i)});
    grid.insert(grid.end(), bg.begin(), bg.end());
  }
  for (const core::CellConcurrency& profile : concurrency.cells()) {
    if (profile.cell.value >= cell_count) continue;
    float* out = grid.data() + static_cast<std::size_t>(profile.cell.value) *
                                   time::kBins15PerWeek;
    for (int bin = 0; bin < time::kBins15PerWeek; ++bin) {
      const auto b = static_cast<std::size_t>(bin);
      out[b] = static_cast<float>(std::clamp(
          static_cast<double>(out[b]) + car_prb_share * profile.weekly[b],
          0.0, 1.0));
    }
  }
  return core::CellLoad(std::move(grid));
}

}  // namespace ccms::sim
