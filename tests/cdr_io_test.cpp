#include "cdr/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "cdr/columnar.h"
#include "test_helpers.h"
#include "util/csv.h"
#include "util/file_io.h"

namespace ccms::cdr {
namespace {

using test::conn;
using test::make_dataset;

class IoTest : public ::testing::Test {
 protected:
  /// Per-test file: ctest runs this binary's cases in parallel processes,
  /// and a shared name would race with another case's TearDown.
  std::string path(const char* name) {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return (std::filesystem::temp_directory_path() / (test + "_" + name))
        .string();
  }
  void TearDown() override {
    std::remove(path("ccms_io.csv").c_str());
    std::remove(path("ccms_io.ccdr2").c_str());
  }

  Dataset sample() {
    return make_dataset(
        {
            conn(0, 10, 0, 15),
            conn(0, 11, 200, 600),
            conn(3, 10, 86400, 3600),
        },
        /*fleet_size=*/10, /*study_days=*/90);
  }
};

TEST_F(IoTest, CsvRoundTrip) {
  const Dataset original = sample();
  write_csv(original, path("ccms_io.csv"));
  const Dataset loaded = read_csv(path("ccms_io.csv"));

  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.fleet_size(), original.fleet_size());
  EXPECT_EQ(loaded.study_days(), original.study_days());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.all()[i], original.all()[i]);
  }
}

/// The writer's exact bytes at the edges of every column: ids 0 and
/// UINT32_MAX, negative and extreme starts, INT32_MIN/INT32_MAX durations.
/// The expected text is what the ostream-based writer produced. The dataset
/// is written unfinalized, in insertion order: a car id of UINT32_MAX has no
/// offset table.
TEST_F(IoTest, CsvWriterBytesArePinned) {
  constexpr std::uint32_t kIdMax = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int32_t kDurMin = std::numeric_limits<std::int32_t>::min();
  Dataset dataset;
  dataset.set_fleet_size(kIdMax);
  dataset.set_study_days(90);
  for (const Connection& c : {
           conn(0, 0, 0, 0),
           conn(0, kIdMax, -86400, std::numeric_limits<std::int32_t>::max()),
           conn(3, 17, -1, kDurMin),
           conn(kIdMax, 0, 7775999, 1),
           conn(kIdMax, kIdMax, std::numeric_limits<std::int64_t>::min(),
                kDurMin),
           conn(42, kIdMax - 1, std::numeric_limits<std::int64_t>::max(), -1),
       }) {
    dataset.add(c);
  }
  const std::string expected =
      "#fleet_size=4294967295,study_days=90\n"
      "car,cell,start_s,duration_s\n"
      "0,0,0,0\n"
      "0,4294967295,-86400,2147483647\n"
      "3,17,-1,-2147483648\n"
      "4294967295,0,7775999,1\n"
      "4294967295,4294967295,-9223372036854775808,-2147483648\n"
      "42,4294967294,9223372036854775807,-1\n";
  EXPECT_EQ(write_csv_text(dataset), expected);

  write_csv(dataset, path("ccms_io.csv"));
  EXPECT_EQ(util::read_file(path("ccms_io.csv")), expected);
}

TEST_F(IoTest, CsvHasHeaderAndMetadata) {
  write_csv(sample(), path("ccms_io.csv"));
  std::ifstream in(path("ccms_io.csv"));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("#fleet_size=10"), std::string::npos);
  EXPECT_NE(line.find("study_days=90"), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "car,cell,start_s,duration_s");
}

TEST_F(IoTest, ReadCsvWithoutMetadataStillWorks) {
  {
    std::ofstream out(path("ccms_io.csv"));
    out << "car,cell,start_s,duration_s\n";
    out << "1,2,300,45\n";
  }
  const Dataset d = read_csv(path("ccms_io.csv"));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.all()[0].car.value, 1u);
  EXPECT_EQ(d.all()[0].duration_s, 45);
}

TEST_F(IoTest, ReadCsvRejectsGarbage) {
  {
    std::ofstream out(path("ccms_io.csv"));
    out << "car,cell,start_s,duration_s\n";
    out << "1,2,xyz,45\n";
  }
  EXPECT_THROW((void)read_csv(path("ccms_io.csv")), util::CsvError);
}

TEST_F(IoTest, ReadCsvRejectsShortRow) {
  {
    std::ofstream out(path("ccms_io.csv"));
    out << "1,2\n";
  }
  EXPECT_THROW((void)read_csv(path("ccms_io.csv")), util::CsvError);
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  {
    std::ofstream out(path("ccms_io.ccdr2"), std::ios::binary);
    out << "NOTCCDR2 garbage garbage garbage garbage garbage";
  }
  IngestReport report;
  EXPECT_THROW((void)read_columnar(path("ccms_io.ccdr2"), {}, report),
               util::CsvError);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  write_columnar(sample(), path("ccms_io.ccdr2"));
  // Chop the file.
  const auto full = std::filesystem::file_size(path("ccms_io.ccdr2"));
  std::filesystem::resize_file(path("ccms_io.ccdr2"), full - 10);
  IngestReport report;
  EXPECT_THROW((void)read_columnar(path("ccms_io.ccdr2"), {}, report),
               util::CsvError);
}

TEST_F(IoTest, MissingFilesThrow) {
  EXPECT_THROW((void)read_csv("/nonexistent/x.csv"), util::CsvError);
  IngestReport report;
  EXPECT_THROW((void)read_columnar("/nonexistent/x.ccdr2", {}, report),
               util::CsvError);
}

TEST_F(IoTest, EmptyDatasetRoundTrips) {
  Dataset empty;
  empty.set_fleet_size(5);
  empty.set_study_days(7);
  empty.finalize();
  write_csv(empty, path("ccms_io.csv"));
  write_columnar(empty, path("ccms_io.ccdr2"));
  IngestReport report;
  for (const Dataset& loaded :
       {read_csv(path("ccms_io.csv")),
        read_columnar(path("ccms_io.ccdr2"), {}, report)}) {
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.fleet_size(), 5u);
    EXPECT_EQ(loaded.study_days(), 7);
  }
}

}  // namespace
}  // namespace ccms::cdr
