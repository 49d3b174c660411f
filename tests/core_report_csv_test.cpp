#include "core/report_csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/load_view.h"
#include "sim/simulator.h"
#include "util/csv.h"

namespace ccms::core {
namespace {

class ReportCsvTest : public ::testing::Test {
 protected:
  static const StudyReport& report() {
    static const StudyReport r = [] {
      sim::SimConfig config = sim::SimConfig::quick();
      config.fleet.size = 150;
      config.study_days = 14;
      const sim::Study study = sim::simulate(config);
      const auto load = CellLoad::from_background(study.background);
      return run_study(study.raw, study.topology.cells(), load);
    }();
    return r;
  }

  // Per-test directory: ctest runs this binary's cases in parallel
  // processes, and TearDown removes the whole directory.
  std::string dir_ =
      (std::filesystem::temp_directory_path() /
       (std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "_ccms_report_csv"))
          .string();

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::size_t line_count(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  }
};

TEST_F(ReportCsvTest, WritesEveryExhibit) {
  write_report_csv(dir_, report());
  for (const char* name :
       {"presence_daily.csv", "presence_weekday.csv",
        "connected_time_cdf.csv", "days_histogram.csv",
        "busy_time_deciles.csv", "segmentation.csv",
        "session_duration_cdf.csv", "handovers.csv", "carrier_usage.csv",
        "cluster_centroids.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir_) / name))
        << name;
  }
}

TEST_F(ReportCsvTest, RowCountsMatchContent) {
  write_report_csv(dir_, report());
  // presence_daily: header + one row per study day.
  EXPECT_EQ(line_count(dir_ + "/presence_daily.csv"),
            1u + report().presence.cars_fraction.size());
  // presence_weekday: header + 7 weekdays + overall.
  EXPECT_EQ(line_count(dir_ + "/presence_weekday.csv"), 9u);
  // carrier_usage: header + 5 carriers.
  EXPECT_EQ(line_count(dir_ + "/carrier_usage.csv"), 6u);
  // cluster_centroids: header + 96 bins.
  EXPECT_EQ(line_count(dir_ + "/cluster_centroids.csv"), 97u);
  // segmentation: header + 4 rows.
  EXPECT_EQ(line_count(dir_ + "/segmentation.csv"), 5u);
}

TEST_F(ReportCsvTest, ValuesParseBack) {
  write_report_csv(dir_, report());
  util::CsvReader reader(dir_ + "/presence_daily.csv");
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));  // header
  std::size_t day = 0;
  while (reader.read_row(row)) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(util::parse_i64(row[0]), static_cast<std::int64_t>(day));
    const double cars = util::parse_f64(row[2]);
    EXPECT_GE(cars, 0.0);
    EXPECT_LE(cars, 1.0);
    EXPECT_NEAR(cars, report().presence.cars_fraction[day], 1e-5);
    ++day;
  }
}

TEST_F(ReportCsvTest, CdfFilesAreMonotone) {
  write_report_csv(dir_, report());
  for (const char* name :
       {"connected_time_cdf.csv", "session_duration_cdf.csv"}) {
    util::CsvReader reader(dir_ + "/" + name);
    std::vector<std::string> row;
    ASSERT_TRUE(reader.read_row(row));
    double prev = -1;
    while (reader.read_row(row)) {
      const double p = util::parse_f64(row.back());
      EXPECT_GE(p, prev) << name;
      prev = p;
    }
    EXPECT_LE(prev, 1.0 + 1e-9);
  }
}

TEST_F(ReportCsvTest, CreatesNestedDirectory) {
  const std::string nested = dir_ + "/a/b";
  write_report_csv(nested, report());
  EXPECT_TRUE(std::filesystem::exists(nested + "/handovers.csv"));
}

}  // namespace
}  // namespace ccms::core
