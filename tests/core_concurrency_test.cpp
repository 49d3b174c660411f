#include "core/concurrency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/passes.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

using test::conn;
using test::make_dataset;
using time::at;

TEST(ConcurrencyTest, EmptyDataset) {
  cdr::Dataset d;
  d.set_study_days(7);
  d.finalize();
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  EXPECT_TRUE(grid.cells().empty());
  EXPECT_EQ(grid.find(CellId{0}), nullptr);
}

TEST(ConcurrencyTest, SingleCarSingleBin) {
  // One week study; one car connected 08:00-08:10 Monday on cell 3.
  const auto d = make_dataset({conn(0, 3, at(0, 8), 600)}, 1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  ASSERT_EQ(grid.cells().size(), 1u);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const int bin = time::bin15_of_week(at(0, 8));
  // One observation in one occurrence of that bin -> average 1.0.
  EXPECT_DOUBLE_EQ(profile->weekly[static_cast<std::size_t>(bin)], 1.0);
  EXPECT_EQ(profile->observations, 1u);
  EXPECT_DOUBLE_EQ(profile->peak, 1.0);
}

TEST(ConcurrencyTest, TwoCarsStraddlingSameBin) {
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 2), 300),
          conn(1, 3, at(0, 8, 9), 300),
      },
      2, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  ASSERT_NE(profile, nullptr);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(profile->weekly[static_cast<std::size_t>(bin)], 2.0);
}

TEST(ConcurrencyTest, SameCarCountedOncePerBin) {
  // The paper counts cars whose *aggregated sessions* straddle a bin; the
  // per-car dedup does the same: two short connections of one car inside
  // one bin count once.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 1), 60),
          conn(0, 3, at(0, 8, 10), 60),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(
      grid.find(CellId{3})->weekly[static_cast<std::size_t>(bin)], 1.0);
}

TEST(ConcurrencyTest, ConnectionSpanningBinsCountsEach) {
  // 08:10 + 10 min straddles bins 32 and 33.
  const auto d = make_dataset({conn(0, 3, at(0, 8, 10), 600)}, 1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->weekly[32], 1.0);
  EXPECT_DOUBLE_EQ(profile->weekly[33], 1.0);
  EXPECT_EQ(profile->observations, 2u);
}

TEST(ConcurrencyTest, AveragesOverWeeks) {
  // 14-day study: car present in the Monday 08:00 bin only in week 0.
  const auto d = make_dataset({conn(0, 3, at(0, 8), 600)}, 1, 14);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const int bin = time::bin15_of_week(at(0, 8));
  EXPECT_DOUBLE_EQ(
      grid.find(CellId{3})->weekly[static_cast<std::size_t>(bin)], 0.5);
}

TEST(ConcurrencyTest, DailyFoldAveragesDays) {
  // 7-day study: Monday and Tuesday 08:00 bins occupied -> daily[32] = 2/7.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 600),
          conn(0, 3, at(1, 8), 600),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_NEAR(profile->daily[32], 2.0 / 7.0, 1e-9);
}

TEST(ConcurrencyTest, CellsSortedAscending) {
  const auto d = make_dataset(
      {
          conn(0, 9, at(0, 8), 60),
          conn(0, 2, at(0, 9), 60),
          conn(0, 5, at(0, 10), 60),
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  ASSERT_EQ(grid.cells().size(), 3u);
  EXPECT_EQ(grid.cells()[0].cell.value, 2u);
  EXPECT_EQ(grid.cells()[1].cell.value, 5u);
  EXPECT_EQ(grid.cells()[2].cell.value, 9u);
  EXPECT_NE(grid.find(CellId{5}), nullptr);
  EXPECT_EQ(grid.find(CellId{7}), nullptr);
}

TEST(ConcurrencyTest, MeanAndPeakConsistent) {
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 600),
          conn(1, 3, at(0, 8), 600),
          conn(0, 3, at(2, 20), 600),
      },
      2, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->peak, 2.0);
  EXPECT_GT(profile->mean, 0.0);
  EXPECT_LT(profile->mean, profile->peak);
}

TEST(ConcurrencyTest, SessionGapMergesAcrossBins) {
  // Two connections 20 s apart around a bin boundary: the aggregated
  // session covers both bins even though neither connection alone does...
  // actually each leg is marked individually; the gap lies inside the
  // session but no leg covers it. Verify both covered bins count once.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8, 13), 100),   // bin 32
          conn(0, 3, at(0, 8, 16), 100),   // bin 33 (gap ~80 s)
      },
      1, 7);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  const CellConcurrency* profile = grid.find(CellId{3});
  EXPECT_DOUBLE_EQ(profile->weekly[32], 1.0);
  EXPECT_DOUBLE_EQ(profile->weekly[33], 1.0);
}

TEST(ConcurrencyTest, StudyDaysRecorded) {
  const auto d = make_dataset({conn(0, 3, at(0, 8), 60)}, 1, 21);
  const ConcurrencyGrid grid = ConcurrencyGrid::build(d);
  EXPECT_EQ(grid.study_days(), 21);
}

using Counts =
    std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>;

/// Folds `d` in two car-aligned halves (cars below `split`, then the
/// rest), merges the halves and returns the counts.
Counts fold_halves(const cdr::Dataset& d, std::uint32_t split,
                   const CellMask* mask) {
  ConcurrencyCountsAccumulator low(d.study_days(), mask);
  ConcurrencyCountsAccumulator high(d.study_days(), mask);
  d.for_each_car([&](CarId car, std::span<const cdr::Connection> records) {
    (car.value < split ? low : high).add_car(car, records);
  });
  low.merge(std::move(high));
  return std::move(low).take_counts();
}

/// `all` restricted to the keys whose cell `mask` counts.
Counts restrict_to(const Counts& all, const CellMask& mask) {
  Counts kept;
  for (std::size_t i = 0; i < all.first.size(); ++i) {
    const CellId cell{static_cast<std::uint32_t>(all.first[i] >> 24)};
    if (!mask.counts(cell)) continue;
    kept.first.push_back(all.first[i]);
    kept.second.push_back(all.second[i]);
  }
  return kept;
}

TEST(ConcurrencyCountsTest, MaskedFoldEqualsUnmaskedRestricted) {
  // Enough records that each half flushes its pending keys more than once.
  const cdr::Dataset& d =
      test::cached_study({.seed = 1, .fleet = 300, .days = 21, .quick = true})
          .raw;
  const std::uint32_t split = d.fleet_size() / 2;
  const Counts all = fold_halves(d, split, nullptr);
  ASSERT_GT(all.first.size(), kPassFlushRecords);

  std::uint32_t max_cell = 0;
  for (const std::uint64_t key : all.first) {
    max_cell = std::max(max_cell, static_cast<std::uint32_t>(key >> 24));
  }
  // Every third cell of the lower half of the id range; the upper half is
  // past the mask and follows `rest`.
  CellMask mask;
  mask.keep.resize(max_cell / 2);
  for (std::size_t c = 0; c < mask.keep.size(); c += 3) mask.keep[c] = 1;
  for (const bool rest : {false, true}) {
    mask.rest = rest;
    const Counts expected = restrict_to(all, mask);
    ASSERT_FALSE(expected.first.empty());
    ASSERT_LT(expected.first.size(), all.first.size());
    EXPECT_EQ(fold_halves(d, split, &mask), expected) << "rest=" << rest;
  }
}

TEST(ConcurrencyCountsTest, EmptyMaskCountsEveryCell) {
  const cdr::Dataset& d =
      test::cached_study({.seed = 1, .fleet = 300, .days = 21, .quick = true})
          .raw;
  const CellMask every;
  const Counts all = fold_halves(d, d.fleet_size() / 2, nullptr);
  EXPECT_EQ(fold_halves(d, d.fleet_size() / 2, &every), all);

  // And the merged halves equal one sequential fold, which is what
  // ConcurrencyGrid::build runs.
  ConcurrencyCountsAccumulator whole(d.study_days());
  d.for_each_car([&](CarId car, std::span<const cdr::Connection> records) {
    whole.add_car(car, records);
  });
  EXPECT_EQ(std::move(whole).take_counts(), all);
}

TEST(ConcurrencyCountsTest, MaskSkipsOnlyExcludedLegs) {
  // Car 0 moves 3 -> 4 -> 3 inside one aggregated session; with cell 4
  // excluded only its leg disappears.
  const auto d = make_dataset(
      {
          conn(0, 3, at(0, 8), 300),
          conn(0, 4, at(0, 8, 5), 300),
          conn(0, 3, at(0, 8, 10), 600),
          conn(1, 4, at(0, 9), 60),
      },
      2, 7);
  CellMask mask;
  mask.keep = {0, 0, 0, 1, 0};
  mask.rest = false;
  const Counts counts = fold_halves(d, 1, &mask);
  const std::uint64_t cell3 = std::uint64_t{3} << 24;
  EXPECT_EQ(counts.first, (std::vector<std::uint64_t>{cell3 | 32, cell3 | 33}));
  EXPECT_EQ(counts.second, (std::vector<std::uint64_t>{1, 1}));
}

}  // namespace
}  // namespace ccms::core
