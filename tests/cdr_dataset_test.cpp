#include "cdr/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "test_helpers.h"

namespace ccms::cdr {
namespace {

using test::conn;
using test::make_dataset;

TEST(DatasetTest, EmptyDataset) {
  Dataset d;
  d.finalize();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.distinct_cells(), 0u);
  EXPECT_TRUE(d.of_car(CarId{0}).empty());
}

TEST(DatasetTest, SortsByCarThenStart) {
  const Dataset d = make_dataset({
      conn(2, 0, 100, 10),
      conn(1, 0, 500, 10),
      conn(1, 0, 50, 10),
      conn(0, 0, 900, 10),
  });
  const auto all = d.all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].car.value, 0u);
  EXPECT_EQ(all[1].car.value, 1u);
  EXPECT_EQ(all[1].start, 50);
  EXPECT_EQ(all[2].start, 500);
  EXPECT_EQ(all[3].car.value, 2u);
}

TEST(DatasetTest, OfCarSpans) {
  const Dataset d = make_dataset({
      conn(0, 0, 0, 10),
      conn(2, 0, 0, 10),
      conn(2, 1, 100, 10),
      conn(5, 0, 0, 10),
  });
  EXPECT_EQ(d.of_car(CarId{0}).size(), 1u);
  EXPECT_TRUE(d.of_car(CarId{1}).empty());
  EXPECT_EQ(d.of_car(CarId{2}).size(), 2u);
  EXPECT_EQ(d.of_car(CarId{5}).size(), 1u);
  EXPECT_TRUE(d.of_car(CarId{100}).empty());
}

TEST(DatasetTest, FleetSizeDefaultsToMaxIdPlusOne) {
  const Dataset d = make_dataset({conn(7, 0, 0, 10)});
  EXPECT_EQ(d.fleet_size(), 8u);
}

TEST(DatasetTest, DeclaredFleetSizeWins) {
  const Dataset d = make_dataset({conn(7, 0, 0, 10)}, /*fleet_size=*/100);
  EXPECT_EQ(d.fleet_size(), 100u);
}

TEST(DatasetTest, StudyDaysInferred) {
  const Dataset d =
      make_dataset({conn(0, 0, 89 * time::kSecondsPerDay + 100, 10)});
  EXPECT_EQ(d.study_days(), 90);
}

TEST(DatasetTest, DeclaredStudyDaysWins) {
  const Dataset d = make_dataset({conn(0, 0, 100, 10)}, 0, /*study_days=*/90);
  EXPECT_EQ(d.study_days(), 90);
}

TEST(DatasetTest, DistinctCells) {
  const Dataset d = make_dataset({
      conn(0, 5, 0, 10),
      conn(1, 5, 0, 10),
      conn(2, 9, 0, 10),
  });
  EXPECT_EQ(d.distinct_cells(), 2u);
}

TEST(DatasetTest, DistinctCellsBeforeFinalize) {
  Dataset d;
  d.add(conn(0, 5, 0, 10));
  EXPECT_EQ(d.distinct_cells(), 1u);
}

TEST(DatasetTest, DistinctCellsCountsRecordsAddedAfterFinalize) {
  Dataset d = make_dataset({conn(0, 5, 0, 10)});
  d.add(conn(1, 7, 0, 10));
  d.add(conn(2, 9, 0, 10));
  EXPECT_FALSE(d.finalized());
  EXPECT_EQ(d.distinct_cells(), 3u);
}

TEST(DatasetTest, ForEachCarVisitsAscending) {
  const Dataset d = make_dataset({
      conn(3, 0, 0, 10),
      conn(1, 0, 0, 10),
      conn(3, 0, 100, 10),
  });
  std::vector<std::uint32_t> cars;
  d.for_each_car([&](CarId car, std::span<const Connection> records) {
    cars.push_back(car.value);
    EXPECT_FALSE(records.empty());
  });
  EXPECT_EQ(cars, (std::vector<std::uint32_t>{1, 3}));
}

TEST(DatasetTest, BulkAdd) {
  std::vector<Connection> records = {conn(0, 0, 0, 10), conn(1, 1, 5, 10)};
  Dataset d;
  d.add(records);
  d.finalize();
  EXPECT_EQ(d.size(), 2u);
}

TEST(DatasetTest, FinalizeIsIdempotent) {
  Dataset d;
  d.add(conn(0, 0, 0, 10));
  d.finalize();
  const auto size_before = d.size();
  d.finalize();
  EXPECT_EQ(d.size(), size_before);
  EXPECT_TRUE(d.finalized());
}

TEST(DatasetTest, AddAfterFinalizeRequiresRefinalize) {
  Dataset d;
  d.add(conn(1, 0, 100, 10));
  d.finalize();
  d.add(conn(0, 0, 0, 10));
  EXPECT_FALSE(d.finalized());
  d.finalize();
  EXPECT_EQ(d.all()[0].car.value, 0u);
}

/// Finalize checks whether the records already ascend and then skips the
/// sort. Every input must still come out as std::stable_sort's output, with
/// the same offset table and derived fleet size and study length, at every
/// width.
TEST(DatasetTest, FinalizeEqualsStableSortOnOrderedInputs) {
  // Records of Dataset::finalize's order-check reduction per chunk.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<Connection> ascending;
  for (std::size_t i = 0; i < 2 * kBlock + 100; ++i) {
    ascending.push_back(conn(static_cast<std::uint32_t>(i / 97),
                             static_cast<std::uint32_t>(i % 13),
                             static_cast<time::Seconds>(i % 97) * 600, 30));
  }
  // One descending pair, its first record the last of the first chunk.
  std::vector<Connection> straddling = ascending;
  std::swap(straddling[kBlock - 1], straddling[kBlock]);
  // Ascending with exact copies side by side: equal neighbours still ascend.
  std::vector<Connection> duplicates;
  for (std::size_t i = 0; i < 3 * kBlock / 2; ++i) {
    duplicates.push_back(ascending[i / 2]);
  }
  const std::vector<std::pair<const char*, std::vector<Connection>>> inputs = {
      {"ascending", ascending},
      {"straddling", straddling},
      {"duplicates", duplicates},
      {"empty", {}},
  };

  exec::ThreadPool pool(8);
  for (const auto& [name, records] : inputs) {
    std::vector<Connection> sorted = records;
    std::stable_sort(sorted.begin(), sorted.end(), ByCarThenStart{});
    std::uint32_t fleet = 0;
    time::Seconds end = 0;
    for (const Connection& c : sorted) {
      fleet = std::max(fleet, c.car.value + 1);
      end = std::max(end, c.end());
    }
    const int days = static_cast<int>(
        (end + time::kSecondsPerDay - 1) / time::kSecondsPerDay);

    for (const int width : {1, 8}) {
      SCOPED_TRACE(std::string(name) + " at width " + std::to_string(width));
      Dataset d;
      d.add(std::span<const Connection>(records));
      if (width == 1) {
        d.finalize();
      } else {
        d.finalize(pool);
      }
      ASSERT_EQ(d.size(), sorted.size());
      EXPECT_TRUE(std::equal(d.all().begin(), d.all().end(), sorted.begin()));
      EXPECT_EQ(d.fleet_size(), fleet);
      EXPECT_EQ(d.study_days(), days);
      std::size_t at = 0;
      for (std::uint32_t car = 0; car < fleet; ++car) {
        std::size_t n = 0;
        while (at + n < sorted.size() && sorted[at + n].car.value == car) ++n;
        const auto span = d.of_car(CarId{car});
        EXPECT_EQ(span.data(), d.all().data() + at) << "car " << car;
        EXPECT_EQ(span.size(), n) << "car " << car;
        at += n;
      }
    }
  }
}

TEST(ConnectionTest, EndAndInterval) {
  const Connection c = conn(0, 0, 100, 50);
  EXPECT_EQ(c.end(), 150);
  EXPECT_EQ(c.interval().start, 100);
  EXPECT_EQ(c.interval().end, 150);
}

TEST(ConnectionTest, Orderings) {
  const Connection a = conn(0, 5, 100, 10);
  const Connection b = conn(0, 3, 200, 10);
  const Connection c = conn(1, 1, 0, 10);
  EXPECT_TRUE(ByCarThenStart{}(a, b));
  EXPECT_TRUE(ByCarThenStart{}(b, c));
  EXPECT_TRUE(ByCellThenStart{}(c, b));  // cell 1 < cell 3
  EXPECT_TRUE(ByCellThenStart{}(b, a));  // cell 3 < cell 5
}

}  // namespace
}  // namespace ccms::cdr
