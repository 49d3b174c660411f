#include "core/cell_sessions.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;

TEST(CellSessionsTest, EmptyDataset) {
  cdr::Dataset d;
  d.finalize();
  const CellSessionStats stats = analyze_cell_sessions(d);
  EXPECT_TRUE(stats.durations.empty());
  EXPECT_EQ(stats.median, 0.0);
}

TEST(CellSessionsTest, BasicStats) {
  const auto d = make_dataset({
      conn(0, 0, 0, 100),
      conn(0, 0, 1000, 100),
      conn(1, 1, 0, 1000),
  });
  const CellSessionStats stats = analyze_cell_sessions(d, 600);
  EXPECT_DOUBLE_EQ(stats.median, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean_full, 400.0);
  EXPECT_DOUBLE_EQ(stats.mean_truncated, (100.0 + 100.0 + 600.0) / 3);
  EXPECT_NEAR(stats.cdf_at_cap, 2.0 / 3, 1e-9);
}

TEST(CellSessionsTest, TruncatedAtMostFull) {
  std::vector<cdr::Connection> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(conn(0, 0, i * 10000, 10 + i * 37));
  }
  const auto d = make_dataset(std::move(records));
  const CellSessionStats stats = analyze_cell_sessions(d);
  EXPECT_LE(stats.mean_truncated, stats.mean_full);
}

TEST(CellSessionsTest, CdfAtCapAllShort) {
  const auto d = make_dataset({conn(0, 0, 0, 100), conn(0, 0, 500, 200)});
  const CellSessionStats stats = analyze_cell_sessions(d, 600);
  EXPECT_DOUBLE_EQ(stats.cdf_at_cap, 1.0);
}

TEST(CellDayTimelineTest, CollectsCarsAndClips) {
  const auto d = make_dataset(
      {
          conn(0, 5, at(3, 8), 600),
          conn(0, 5, at(3, 10), 600),
          conn(1, 5, at(3, 8, 5), 600),
          conn(2, 5, at(2, 23, 50), 1200),  // straddles into day 3
          conn(3, 9, at(3, 8), 600),        // other cell: excluded
          conn(4, 5, at(4, 8), 600),        // other day: excluded
      },
      5, 7);
  const CellDayTimeline timeline = cell_day_timeline(d, CellId{5}, 3);
  EXPECT_EQ(timeline.cars.size(), 3u);

  // Car 2's record is clipped to day 3's start.
  bool found_clipped = false;
  for (const auto& row : timeline.cars) {
    if (row.car.value == 2) {
      found_clipped = true;
      ASSERT_EQ(row.connections.size(), 1u);
      EXPECT_EQ(row.connections[0].start, at(3, 0));
      EXPECT_EQ(row.connections[0].end, at(2, 23, 50) + 1200);
    }
  }
  EXPECT_TRUE(found_clipped);
}

TEST(CellDayTimelineTest, MaxConcurrent) {
  // Three cars overlap the 08:00-08:15 bin; one more at 20:00.
  const auto d = make_dataset(
      {
          conn(0, 5, at(0, 8, 1), 300),
          conn(1, 5, at(0, 8, 5), 300),
          conn(2, 5, at(0, 8, 10), 300),
          conn(3, 5, at(0, 20), 300),
      },
      4, 1);
  const CellDayTimeline timeline = cell_day_timeline(d, CellId{5}, 0);
  EXPECT_EQ(timeline.max_concurrent, 3);
  EXPECT_EQ(timeline.max_concurrent_bin, 32);  // 08:00
}

TEST(CellDayTimelineTest, SameCarNotDoubleCounted) {
  const auto d = make_dataset(
      {
          conn(0, 5, at(0, 8, 1), 60),
          conn(0, 5, at(0, 8, 8), 60),  // same bin, same car
      },
      1, 1);
  const CellDayTimeline timeline = cell_day_timeline(d, CellId{5}, 0);
  EXPECT_EQ(timeline.max_concurrent, 1);
  ASSERT_EQ(timeline.cars.size(), 1u);
  EXPECT_EQ(timeline.cars[0].connections.size(), 2u);
}

TEST(CellDayTimelineTest, RowsFollowStartOrderNotCarOrder) {
  // Stored by (car, start): car 1, 0, 2, 3. Rows appear in order of each
  // car's first connection on the cell, ties broken by car id.
  const auto d = make_dataset(
      {
          conn(1, 5, at(0, 12), 60),
          conn(1, 5, at(0, 9), 60),
          conn(0, 5, at(0, 10), 60),
          conn(2, 5, at(0, 10), 60),
          conn(3, 5, at(0, 11), 60),
          conn(3, 5, at(0, 8), 60),
      },
      4, 1);
  const CellDayTimeline timeline = cell_day_timeline(d, CellId{5}, 0);
  std::vector<std::uint32_t> cars;
  for (const auto& row : timeline.cars) cars.push_back(row.car.value);
  EXPECT_EQ(cars, (std::vector<std::uint32_t>{3, 1, 0, 2}));

  ASSERT_EQ(timeline.cars[0].connections.size(), 2u);
  EXPECT_EQ(timeline.cars[0].connections[0].start, at(0, 8));
  EXPECT_EQ(timeline.cars[0].connections[1].start, at(0, 11));
  ASSERT_EQ(timeline.cars[1].connections.size(), 2u);
  EXPECT_EQ(timeline.cars[1].connections[0].start, at(0, 9));
  EXPECT_EQ(timeline.cars[1].connections[1].start, at(0, 12));
}

TEST(CellDayTimelineTest, EmptyCell) {
  const auto d = make_dataset({conn(0, 5, at(0, 8), 60)}, 1, 1);
  const CellDayTimeline timeline = cell_day_timeline(d, CellId{99}, 0);
  EXPECT_TRUE(timeline.cars.empty());
  EXPECT_EQ(timeline.max_concurrent, 0);
}

TEST(BusiestCellTest, FindsTheCrowd) {
  const auto d = make_dataset(
      {
          conn(0, 5, at(0, 8), 60),
          conn(1, 5, at(0, 9), 60),
          conn(2, 5, at(0, 10), 60),
          conn(3, 9, at(0, 8), 60),
      },
      4, 1);
  const BusiestCell best = busiest_cell_by_cars(d, 0);
  EXPECT_EQ(best.cell.value, 5u);
  EXPECT_EQ(best.distinct_cars, 3u);
}

TEST(BusiestCellTest, RespectsDayWindow) {
  const auto d = make_dataset(
      {
          conn(0, 5, at(0, 8), 60),
          conn(1, 9, at(1, 8), 60),
          conn(2, 9, at(1, 9), 60),
      },
      3, 2);
  EXPECT_EQ(busiest_cell_by_cars(d, 0).cell.value, 5u);
  EXPECT_EQ(busiest_cell_by_cars(d, 1).cell.value, 9u);
}

TEST(BusiestCellTest, TieGoesToLowerCellId) {
  // Cells 9 and 4 both see two distinct cars; cell 9's cars come first in
  // car order, and car 2's repeat visit to cell 4 counts once.
  const auto d = make_dataset(
      {
          conn(0, 9, at(0, 8), 60),
          conn(1, 9, at(0, 9), 60),
          conn(2, 4, at(0, 10), 60),
          conn(2, 4, at(0, 11), 60),
          conn(3, 4, at(0, 12), 60),
      },
      4, 1);
  const BusiestCell best = busiest_cell_by_cars(d, 0);
  EXPECT_EQ(best.cell.value, 4u);
  EXPECT_EQ(best.distinct_cars, 2u);
}

}  // namespace
}  // namespace ccms::core
