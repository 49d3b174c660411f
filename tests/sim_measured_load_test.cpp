#include "sim/measured_load.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "test_helpers.h"

namespace ccms::sim {
namespace {

TEST(MeasuredLoadTest, NeverBelowBackground) {
  const Study study = simulate(SimConfig::quick());
  const auto measured = measured_load(study.background, study.raw);
  ASSERT_EQ(measured.cell_count(), study.background.cell_count());
  for (std::uint32_t c = 0; c < measured.cell_count(); c += 7) {
    for (int bin = 0; bin < time::kBins15PerWeek; bin += 31) {
      EXPECT_GE(measured.at(CellId{c}, bin) + 1e-6,
                study.background.at(CellId{c}, bin));
      EXPECT_LE(measured.at(CellId{c}, bin), 1.0);
    }
  }
}

TEST(MeasuredLoadTest, ZeroShareEqualsBackground) {
  const Study study = simulate(SimConfig::quick());
  const auto measured = measured_load(study.background, study.raw, 0.0);
  for (std::uint32_t c = 0; c < measured.cell_count(); c += 13) {
    for (int bin = 0; bin < time::kBins15PerWeek; bin += 47) {
      EXPECT_NEAR(measured.at(CellId{c}, bin),
                  study.background.at(CellId{c}, bin), 1e-6);
    }
  }
}

TEST(MeasuredLoadTest, ContributionScalesWithShare) {
  const Study study = simulate(SimConfig::quick());
  const auto small = measured_load(study.background, study.raw, 0.01);
  const auto big = measured_load(study.background, study.raw, 0.05);
  // Aggregate uplift ordering must hold.
  double small_sum = 0, big_sum = 0;
  for (std::uint32_t c = 0; c < small.cell_count(); ++c) {
    small_sum += small.weekly_mean(CellId{c});
    big_sum += big.weekly_mean(CellId{c});
  }
  EXPECT_GT(big_sum, small_sum);
}

TEST(MeasuredLoadTest, BusyCellsGainMostWhereCarsConcentrate) {
  SimConfig config = SimConfig::quick();
  config.fleet.size = 500;
  const Study study = simulate(config);
  const auto measured = measured_load(study.background, study.raw, 0.05);

  // The cell with the highest concurrency must show a larger uplift than
  // a cell cars never touch.
  const auto grid = core::ConcurrencyGrid::build(study.raw);
  const core::CellConcurrency* crowded = nullptr;
  for (const auto& profile : grid.cells()) {
    if (crowded == nullptr || profile.peak > crowded->peak) crowded = &profile;
  }
  ASSERT_NE(crowded, nullptr);
  const double uplift_crowded =
      measured.weekly_mean(crowded->cell) -
      study.background.weekly_mean(crowded->cell);

  for (std::uint32_t c = 0; c < measured.cell_count(); ++c) {
    if (grid.find(CellId{c}) == nullptr) {
      const double uplift_empty = measured.weekly_mean(CellId{c}) -
                                  study.background.weekly_mean(CellId{c});
      EXPECT_GT(uplift_crowded, uplift_empty);
      EXPECT_NEAR(uplift_empty, 0.0, 1e-6);
      return;
    }
  }
}

}  // namespace
}  // namespace ccms::sim
