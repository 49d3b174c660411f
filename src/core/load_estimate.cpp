#include "core/load_estimate.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ccms::core {

CellLoad estimate_load(const ConcurrencyGrid& concurrency,
                       std::size_t cell_count,
                       const LoadEstimateConfig& config) {
  const auto base = static_cast<float>(std::clamp(config.base, 0.0, 1.0));
  std::vector<float> grid(cell_count * time::kBins15PerWeek, base);

  const double capacity = std::max(0.1, config.capacity_cars);
  for (const CellConcurrency& profile : concurrency.cells()) {
    if (profile.cell.value >= cell_count) continue;
    float* out = grid.data() + static_cast<std::size_t>(profile.cell.value) *
                                   time::kBins15PerWeek;
    for (int bin = 0; bin < time::kBins15PerWeek; ++bin) {
      const auto i = static_cast<std::size_t>(bin);
      out[i] = static_cast<float>(
          std::clamp(config.base + profile.weekly[i] / capacity, 0.0, 1.0));
    }
  }
  return CellLoad(std::move(grid));
}

namespace {

/// Ranks of a vector (average ranks for ties would be overkill here; the
/// weekly means are effectively continuous).
std::vector<double> ranks(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> rank(values.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = static_cast<double>(r);
  }
  return rank;
}

}  // namespace

double load_rank_correlation(const CellLoad& estimated,
                             const CellLoad& reference,
                             std::size_t cell_count) {
  std::vector<double> a;
  std::vector<double> b;
  for (std::size_t i = 0; i < cell_count; ++i) {
    const CellId cell{static_cast<std::uint32_t>(i)};
    a.push_back(estimated.weekly_mean(cell));
    b.push_back(reference.weekly_mean(cell));
  }
  if (a.size() < 3) return 0;

  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean = (n - 1) / 2;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = ra[i] - mean;
    const double db = rb[i] - mean;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  return va > 0 && vb > 0 ? cov / std::sqrt(va * vb) : 0;
}

}  // namespace ccms::core
