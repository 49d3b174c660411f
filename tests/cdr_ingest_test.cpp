// Hardened-ingest behaviour: messy-but-honest inputs (BOM, CRLF, trailing
// blank lines) parse everywhere including the legacy entry points; lenient
// mode quarantines with exact byte offsets and reasons. The binary format's
// hostile-header cases live in cdr_columnar_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cdr/io.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::cdr {
namespace {

using test::conn;
using test::make_dataset;

class IngestTest : public ::testing::Test {
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
    std::remove(path("ccms_ingest.csv").c_str());
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

  /// Byte offset of `line` within `text` (the line must occur exactly once).
  static std::uint64_t offset_of(const std::string& text,
                                 const std::string& line) {
    const auto pos = text.find(line);
    EXPECT_NE(pos, std::string::npos) << line;
    EXPECT_EQ(text.find(line, pos + 1), std::string::npos)
        << "ambiguous line: " << line;
    return pos;
  }
};

TEST_F(IngestTest, LegacyCsvToleratesBomCrlfAndTrailingBlankLines) {
  {
    std::ofstream out(path("ccms_ingest.csv"), std::ios::binary);
    out << "\xEF\xBB\xBF"
        << "#fleet_size=10,study_days=90\r\n"
        << "car,cell,start_s,duration_s\r\n"
        << "0,10,0,15\r\n"
        << "0,11,200,600\r\n"
        << "3,10,86400,3600\r\n"
        << "\r\n"
        << "\n";
  }
  const Dataset loaded = read_csv(path("ccms_ingest.csv"));
  const Dataset expected = sample();
  ASSERT_EQ(loaded.size(), expected.size());
  EXPECT_EQ(loaded.fleet_size(), 10u);
  EXPECT_EQ(loaded.study_days(), 90);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(loaded.all()[i], expected.all()[i]);
  }
}

TEST_F(IngestTest, LenientQuarantineCarriesOffsetsReasonsAndRawRows) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2\n"
      "1,2,abc,50\n"
      "1,2,150,-5\n"
      "1,2,200,60\n";
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset loaded = read_csv_text(text, options, report, "unit");

  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(report.rows_read, 5u);
  EXPECT_EQ(report.records_accepted, 2u);
  EXPECT_EQ(report.records_dropped, 3u);
  EXPECT_EQ(report.count(FaultClass::kTruncatedLine), 1u);
  EXPECT_EQ(report.count(FaultClass::kBadField), 1u);
  EXPECT_EQ(report.count(FaultClass::kNegativeDuration), 1u);
  EXPECT_FALSE(report.bom_stripped);
  EXPECT_EQ(report.bytes_consumed, text.size());

  ASSERT_EQ(report.quarantine.size(), 3u);
  EXPECT_EQ(report.quarantine_overflow, 0u);

  const QuarantineEntry& short_row = report.quarantine[0];
  EXPECT_EQ(short_row.fault, FaultClass::kTruncatedLine);
  EXPECT_EQ(short_row.byte_offset, offset_of(text, "1,2\n"));
  EXPECT_EQ(short_row.raw, "1,2");
  EXPECT_NE(short_row.reason.find("need 4"), std::string::npos);

  const QuarantineEntry& bad_field = report.quarantine[1];
  EXPECT_EQ(bad_field.fault, FaultClass::kBadField);
  EXPECT_EQ(bad_field.byte_offset, offset_of(text, "1,2,abc,50\n"));
  EXPECT_EQ(bad_field.raw, "1,2,abc,50");

  const QuarantineEntry& negative = report.quarantine[2];
  EXPECT_EQ(negative.fault, FaultClass::kNegativeDuration);
  EXPECT_EQ(negative.byte_offset, offset_of(text, "1,2,150,-5\n"));
  EXPECT_NE(negative.reason.find("negative duration"), std::string::npos);
}

TEST_F(IngestTest, StrictModeNamesTheInputAndTheByteOffset) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,abc,50\n";
  IngestOptions options;  // strict by default
  IngestReport report;
  try {
    (void)read_csv_text(text, options, report, "trace.csv");
    FAIL() << "strict ingest must throw";
  } catch (const util::CsvError& e) {
    const std::string message = e.what();
    const std::string needle = "at byte offset " +
                               std::to_string(offset_of(text, "1,2,abc,50")) +
                               " in trace.csv";
    EXPECT_NE(message.find(needle), std::string::npos) << message;
  }
}

TEST_F(IngestTest, QuarantineCapBoundsMemoryButNotCounting) {
  std::string text = "car,cell,start_s,duration_s\n";
  for (int i = 0; i < 5; ++i) text += "bad,row\n";
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  options.quarantine_cap = 2;
  IngestReport report;
  (void)read_csv_text(text, options, report);
  EXPECT_EQ(report.count(FaultClass::kTruncatedLine), 5u);
  EXPECT_EQ(report.quarantine.size(), 2u);
  EXPECT_EQ(report.quarantine_overflow, 3u);
}

TEST_F(IngestTest, GeometryScreeningFlagsSkewAndUnknownCells) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,9999999,50\n"
      "1,500,200,50\n"
      "1,2,300,999999\n";
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  options.horizon_s = 86400;
  options.cell_universe = 100;
  options.max_duration_s = 7200;
  IngestReport report;
  const Dataset loaded = read_csv_text(text, options, report);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(report.count(FaultClass::kClockSkew), 1u);
  EXPECT_EQ(report.count(FaultClass::kUnknownCell), 1u);
  EXPECT_EQ(report.count(FaultClass::kOverflowDuration), 1u);
}

TEST_F(IngestTest, DuplicateAndOutOfOrderRowsAreRepairedNotDropped) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,100,50\n"
      "1,2,300,60\n"
      "1,2,200,70\n";
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset loaded = read_csv_text(text, options, report);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(report.count(FaultClass::kDuplicateRecord), 1u);
  EXPECT_EQ(report.count(FaultClass::kOutOfOrderRecord), 1u);
  EXPECT_EQ(report.records_repaired, 2u);
  EXPECT_EQ(report.records_dropped, 0u);
  // finalize() re-sorted the displaced row.
  EXPECT_EQ(loaded.all()[1].start, 200);
  EXPECT_EQ(loaded.all()[2].start, 300);
}

}  // namespace
}  // namespace ccms::cdr
