#include "sim/fota.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace ccms::sim {
namespace {

class FotaTest : public ::testing::Test {
 protected:
  FotaTest() : topo_(test::small_topology()) {
    util::Rng rng(5);
    load_ = net::background_load(topo_, net::LoadModelConfig{}, rng);
  }
  net::Topology topo_;
  net::CellLoad load_;
};

TEST_F(FotaTest, WeekdayAverageDayHas96Bins) {
  const CellId cell = topo_.cells().all().front().id;
  const auto day = weekday_average_day(load_, cell);
  ASSERT_EQ(day.size(), 96u);
  for (const double u : day) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST_F(FotaTest, WeekdayAverageExcludesWeekend) {
  const CellId cell = topo_.cells().all().front().id;
  const auto day = weekday_average_day(load_, cell);
  const auto profile = load_.profile(cell);
  // Hand-average Monday..Friday of bin 40.
  double expected = 0;
  for (int d = 0; d < 5; ++d) {
    expected += profile[static_cast<std::size_t>(d * 96 + 40)];
  }
  expected /= 5;
  EXPECT_NEAR(day[40], expected, 1e-6);
}

TEST_F(FotaTest, SaturationPinsUtilizationDuringTest) {
  const auto cells = pick_test_cells(load_, topo_.cells(), 2);
  ASSERT_GE(cells.size(), 1u);
  const auto result = saturation_experiment(load_, topo_.cells(), cells[0]);
  EXPECT_NEAR(result.peak_utilization, 1.0, 1e-6);
  // Fig 1: during the test window utilization ~100%, before it the
  // curves coincide with the average.
  for (int k = 0; k < kPaperTestBins; ++k) {
    const auto bin =
        static_cast<std::size_t>((kPaperTestStartBin + k) % 96);
    EXPECT_GT(result.test_day[bin], 0.99);
  }
  EXPECT_NEAR(result.test_day[40], result.average_day[40], 1e-9);
}

TEST_F(FotaTest, DeliversData) {
  const auto cells = pick_test_cells(load_, topo_.cells(), 1);
  ASSERT_EQ(cells.size(), 1u);
  const auto result = saturation_experiment(load_, topo_.cells(), cells[0]);
  EXPECT_GT(result.delivered_mb, 0.0);
}

TEST_F(FotaTest, PickTestCellsRespectsBand) {
  const auto cells = pick_test_cells(load_, topo_.cells(), 5, 0.3, 0.6);
  for (const CellId cell : cells) {
    const double mean = load_.weekly_mean(cell);
    EXPECT_GE(mean, 0.3);
    EXPECT_LE(mean, 0.6);
  }
}

TEST_F(FotaTest, PickTestCellsHonoursCount) {
  const auto cells = pick_test_cells(load_, topo_.cells(), 3);
  EXPECT_LE(cells.size(), 3u);
}

TEST_F(FotaTest, DownloadFasterOffPeak) {
  const auto cells = pick_test_cells(load_, topo_.cells(), 1, 0.4, 0.7);
  ASSERT_EQ(cells.size(), 1u);
  const double night =
      fota_download_seconds(load_, topo_.cells(), cells[0], 500.0, 12);
  const double peak =
      fota_download_seconds(load_, topo_.cells(), cells[0], 500.0, 76);
  ASSERT_GT(night, 0.0);
  ASSERT_GT(peak, 0.0);
  EXPECT_LT(night, peak);
}

TEST_F(FotaTest, PaperConstants) {
  // 20:45 = bin 83; 4 hours = 16 bins.
  EXPECT_EQ(kPaperTestStartBin, 83);
  EXPECT_EQ(kPaperTestBins, 16);
  EXPECT_EQ(time::bin15_of_day(time::at(0, 20, 45)), kPaperTestStartBin);
}

}  // namespace
}  // namespace ccms::sim
