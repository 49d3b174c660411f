#include "core/load_estimate.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;

TEST(LoadEstimateTest, EmptyGridGivesFlatBase) {
  cdr::Dataset d;
  d.set_study_days(7);
  d.finalize();
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellLoad load = estimate_load(grid, 5, {.base = 0.3});
  EXPECT_EQ(load.cell_count(), 5u);
  for (int bin = 0; bin < time::kBins15PerWeek; bin += 97) {
    EXPECT_NEAR(load.at(CellId{2}, bin), 0.3, 1e-6);
  }
}

TEST(LoadEstimateTest, ConcurrencyRaisesUtilization) {
  // Three cars straddle Monday 08:00 on cell 0 every week; cell 1 is idle.
  std::vector<cdr::Connection> records;
  for (int week = 0; week < 2; ++week) {
    for (std::uint32_t car = 0; car < 3; ++car) {
      records.push_back(conn(car, 0, at(week * 7, 8), 600));
    }
  }
  const auto d = make_dataset(std::move(records), 3, 14);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  LoadEstimateConfig config;
  config.base = 0.2;
  config.capacity_cars = 6;
  const CellLoad load = estimate_load(grid, 2, config);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_NEAR(load.at(CellId{0}, bin), 0.2 + 3.0 / 6.0, 1e-6);
  EXPECT_NEAR(load.at(CellId{1}, bin), 0.2, 1e-6);
}

TEST(LoadEstimateTest, ClampsAtOne) {
  std::vector<cdr::Connection> records;
  for (std::uint32_t car = 0; car < 50; ++car) {
    records.push_back(conn(car, 0, at(0, 8), 600));
  }
  const auto d = make_dataset(std::move(records), 50, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellLoad load = estimate_load(grid, 1, {.base = 0.2, .capacity_cars = 5});
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_NEAR(load.at(CellId{0}, bin), 1.0, 1e-6);
}

TEST(LoadEstimateTest, RankCorrelationPerfectOnIdentity) {
  std::vector<std::vector<float>> profiles(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    profiles[i].assign(time::kBins15PerWeek, 0.1f * static_cast<float>(i + 1));
  }
  const CellLoad load = CellLoad::from_profiles(std::move(profiles));
  EXPECT_NEAR(load_rank_correlation(load, load, 4), 1.0, 1e-9);
}

TEST(LoadEstimateTest, RankCorrelationNegativeOnReversal) {
  std::vector<std::vector<float>> up(4), down(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    up[i].assign(time::kBins15PerWeek, 0.1f * static_cast<float>(i + 1));
    down[i].assign(time::kBins15PerWeek, 0.1f * static_cast<float>(4 - i));
  }
  const CellLoad a = CellLoad::from_profiles(std::move(up));
  const CellLoad b = CellLoad::from_profiles(std::move(down));
  EXPECT_NEAR(load_rank_correlation(a, b, 4), -1.0, 1e-9);
}

TEST(LoadEstimateTest, TooFewCellsIsZero) {
  const CellLoad empty;
  EXPECT_EQ(load_rank_correlation(empty, empty, 2), 0.0);
}

TEST(LoadEstimateTest, EstimateCorrelatesWithTruthOnSimulatedStudy) {
  // End-to-end validation: concurrency-estimated load must rank cells
  // similarly to the true background grid, at least among cells cars visit.
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 500;
  const sim::Study study = sim::simulate(config);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(study.raw);
  const CellLoad estimated =
      estimate_load(grid, study.topology.cells().size());
  const CellLoad truth = CellLoad::from_background(study.background);

  // Restrict the comparison to visited cells (unvisited ones carry no
  // signal): build compact vectors via the public API by copying weekly
  // means of visited cells into two aligned fake grids of flat weeks.
  std::vector<std::vector<float>> est_profiles, truth_profiles;
  for (const CellConcurrency& profile : grid.cells()) {
    est_profiles.emplace_back(
        time::kBins15PerWeek,
        static_cast<float>(estimated.weekly_mean(profile.cell)));
    truth_profiles.emplace_back(
        time::kBins15PerWeek,
        static_cast<float>(truth.weekly_mean(profile.cell)));
  }
  const auto n = est_profiles.size();
  const CellLoad est_compact =
      CellLoad::from_profiles(std::move(est_profiles));
  const CellLoad truth_compact =
      CellLoad::from_profiles(std::move(truth_profiles));
  const double rho = load_rank_correlation(est_compact, truth_compact, n);
  // Tracked-car concurrency is a noisy proxy, but the correlation must be
  // clearly positive: busy places attract both cars and background load.
  EXPECT_GT(rho, 0.2);
}

}  // namespace
}  // namespace ccms::core
