#include <gtest/gtest.h>

#include "core/busy_time.h"
#include "core/segmentation.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;

/// Load view where cell 0 is always busy, cell 1 never, and cell 2 busy
/// only during the network peak (14-24h).
CellLoad test_load() {
  std::vector<std::vector<float>> profiles(3);
  profiles[0].assign(time::kBins15PerWeek, 0.95f);
  profiles[1].assign(time::kBins15PerWeek, 0.20f);
  profiles[2].assign(time::kBins15PerWeek, 0.20f);
  for (int day = 0; day < 7; ++day) {
    for (int bin = 14 * 4; bin < 96; ++bin) {
      profiles[2][static_cast<std::size_t>(day * 96 + bin)] = 0.90f;
    }
  }
  return CellLoad::from_profiles(std::move(profiles));
}

TEST(CellLoadTest, BusyThreshold) {
  const CellLoad load = test_load();
  EXPECT_TRUE(load.busy(CellId{0}, 0));
  EXPECT_FALSE(load.busy(CellId{1}, 0));
  EXPECT_FALSE(load.busy(CellId{2}, 10));           // 02:30 Monday
  EXPECT_TRUE(load.busy(CellId{2}, 15 * 4));        // 15:00 Monday
  EXPECT_FALSE(load.busy(CellId{99}, 0));           // unknown cell
}

TEST(CellLoadTest, WeeklyMeanAndDailyCurve) {
  const CellLoad load = test_load();
  EXPECT_NEAR(load.weekly_mean(CellId{0}), 0.95, 1e-6);
  // Cell 2: 56 quiet bins at 0.20 and 40 peak bins at 0.90 every day.
  EXPECT_NEAR(load.weekly_mean(CellId{2}), (56 * 0.20 + 40 * 0.90) / 96, 1e-6);
  EXPECT_EQ(load.weekly_mean(CellId{99}), 0.0);  // unknown cell
}

TEST(CellLoadTest, AtTimeUsesWeekBin) {
  const CellLoad load = test_load();
  EXPECT_NEAR(load.at_time(CellId{2}, at(0, 15)), 0.90, 1e-6);
  EXPECT_NEAR(load.at_time(CellId{2}, at(0, 3)), 0.20, 1e-6);
}

TEST(BusyTimeTest, AllTimeInBusyCell) {
  const auto d = make_dataset({conn(0, 0, at(0, 10), 600)}, 1, 90);
  const BusyTime result = analyze_busy_time(d, test_load());
  ASSERT_EQ(result.per_car.size(), 1u);
  EXPECT_DOUBLE_EQ(result.per_car[0].share, 1.0);
  EXPECT_EQ(result.per_car[0].connected, 600);
  EXPECT_DOUBLE_EQ(result.fraction_over_half, 1.0);
  EXPECT_DOUBLE_EQ(result.fraction_all, 1.0);
}

TEST(BusyTimeTest, NoTimeInBusyCell) {
  const auto d = make_dataset({conn(0, 1, at(0, 10), 600)}, 1, 90);
  const BusyTime result = analyze_busy_time(d, test_load());
  EXPECT_DOUBLE_EQ(result.per_car[0].share, 0.0);
  EXPECT_DOUBLE_EQ(result.fraction_over_half, 0.0);
}

TEST(BusyTimeTest, HalfAndHalf) {
  const auto d = make_dataset(
      {
          conn(0, 0, at(0, 10), 600),
          conn(0, 1, at(0, 12), 600),
      },
      1, 90);
  const BusyTime result = analyze_busy_time(d, test_load());
  EXPECT_DOUBLE_EQ(result.per_car[0].share, 0.5);
  EXPECT_DOUBLE_EQ(result.fraction_over_half, 0.0);  // strictly >0.5
}

TEST(BusyTimeTest, TimeVaryingCellSplitsAtBinBoundary) {
  // Connection on cell 2 from 13:45 to 14:15: first 15 min non-busy,
  // second 15 min busy.
  const auto d = make_dataset({conn(0, 2, at(0, 13, 45), 1800)}, 1, 90);
  const BusyTime result = analyze_busy_time(d, test_load());
  EXPECT_DOUBLE_EQ(result.per_car[0].share, 0.5);
}

TEST(BusyTimeTest, CustomThreshold) {
  // With threshold 0.1, even the quiet cell counts as busy.
  const auto d = make_dataset({conn(0, 1, at(0, 10), 600)}, 1, 90);
  const BusyTime result = analyze_busy_time(d, test_load(), 0.1);
  EXPECT_DOUBLE_EQ(result.per_car[0].share, 1.0);
}

TEST(BusyTimeTest, SharesDistributionMatchesPerCar) {
  const auto d = make_dataset(
      {
          conn(0, 0, at(0, 10), 600),  // all busy
          conn(1, 1, at(0, 10), 600),  // none busy
      },
      2, 90);
  const BusyTime result = analyze_busy_time(d, test_load());
  EXPECT_EQ(result.shares.size(), 2u);
  EXPECT_DOUBLE_EQ(result.shares.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(result.shares.quantile(1.0), 1.0);
}

TEST(SegmentationTest, ClassifyBusyShare) {
  const SegmentationConfig config;
  EXPECT_EQ(classify_busy_share(0.7, config), BusyClass::kBusy);
  EXPECT_EQ(classify_busy_share(0.65, config), BusyClass::kBusy);
  EXPECT_EQ(classify_busy_share(0.5, config), BusyClass::kBoth);
  EXPECT_EQ(classify_busy_share(0.35, config), BusyClass::kNonBusy);
  EXPECT_EQ(classify_busy_share(0.0, config), BusyClass::kNonBusy);
}

TEST(SegmentationTest, EmptyInputs) {
  const Segmentation seg = segment_cars(DaysOnNetwork{}, BusyTime{});
  EXPECT_EQ(seg.car_count, 0u);
  EXPECT_EQ(seg.rare_a.total(), 0.0);
}

TEST(SegmentationTest, TableFractionsSumToOne) {
  DaysOnNetwork days;
  BusyTime busy;
  // 10 cars: days 1..10 alternating busy shares.
  for (std::uint32_t i = 0; i < 10; ++i) {
    days.cars.push_back(CarId{i});
    days.days_per_car.push_back(static_cast<int>(i * 9 + 1));
    busy.per_car.push_back({CarId{i}, (i % 3) * 0.4, 100});
  }
  const Segmentation seg = segment_cars(days, busy);
  EXPECT_NEAR(seg.rare_a.total() + seg.common_a.total(), 1.0, 1e-9);
  EXPECT_NEAR(seg.rare_b.total() + seg.common_b.total(), 1.0, 1e-9);
}

TEST(SegmentationTest, RareBoundariesInclusive) {
  DaysOnNetwork days;
  BusyTime busy;
  days.cars = {CarId{0}, CarId{1}, CarId{2}, CarId{3}};
  days.days_per_car = {10, 11, 30, 31};
  for (std::uint32_t i = 0; i < 4; ++i) busy.per_car.push_back({CarId{i}, 0.0, 1});
  const Segmentation seg = segment_cars(days, busy);
  // <=10: only the first car.
  EXPECT_NEAR(seg.rare_a.total(), 0.25, 1e-9);
  // <=30: cars 0,1,2.
  EXPECT_NEAR(seg.rare_b.total(), 0.75, 1e-9);
}

TEST(SegmentationTest, BusyColumnsRouteCorrectly) {
  DaysOnNetwork days;
  BusyTime busy;
  days.cars = {CarId{0}, CarId{1}, CarId{2}};
  days.days_per_car = {50, 50, 50};
  busy.per_car = {{CarId{0}, 0.9, 1}, {CarId{1}, 0.5, 1}, {CarId{2}, 0.1, 1}};
  const Segmentation seg = segment_cars(days, busy);
  EXPECT_NEAR(seg.common_a.busy, 1.0 / 3, 1e-9);
  EXPECT_NEAR(seg.common_a.both, 1.0 / 3, 1e-9);
  EXPECT_NEAR(seg.common_a.non_busy, 1.0 / 3, 1e-9);
  EXPECT_EQ(seg.rare_a.total(), 0.0);
}

TEST(SegmentationTest, CustomThresholds) {
  DaysOnNetwork days;
  BusyTime busy;
  days.cars = {CarId{0}};
  days.days_per_car = {5};
  busy.per_car = {{CarId{0}, 0.5, 1}};
  SegmentationConfig config;
  config.rare_days_a = 4;  // 5 days is now common
  config.hi_share = 0.45;  // 0.5 is now busy-typical
  const Segmentation seg = segment_cars(days, busy, config);
  EXPECT_NEAR(seg.common_a.busy, 1.0, 1e-9);
}

}  // namespace
}  // namespace ccms::core
