// The §7 record screen seen through both readers: one faulty record set,
// written as CSV and as CCDR2, must screen to the same accounting. The
// value checks and the duplicate check are format-independent, so the
// counters, the partition (rows read / accepted / dropped / repaired), the
// quarantine's (fault, reason) sequence and the surviving records agree;
// only byte offsets (row vs block) and raw rows (CSV only) may differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cdr/columnar.h"
#include "cdr/io.h"
#include "faults/fault_injector.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::cdr {
namespace {

constexpr int kStudyDays = 14;
constexpr std::uint32_t kCells = 500;

/// A sorted, duplicate-free study whose every record passes the screen.
Dataset clean_base() {
  std::vector<Connection> records;
  for (std::uint32_t car = 0; car < 60; ++car) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      records.push_back(test::conn(car, (car * 37 + i * 11) % kCells,
                                   std::int64_t{i} * 20000 + car,
                                   static_cast<std::int32_t>(30 + i * 7 % 900)));
    }
  }
  return test::make_dataset(std::move(records), 60, kStudyDays);
}

struct Corrupted {
  Dataset dataset;
  faults::FaultLog log;
};

/// Value faults of all four classes plus exact duplicates.
const Corrupted& corrupted() {
  static const Corrupted out = [] {
    faults::FaultEnv env;
    env.horizon_s = std::int64_t{kStudyDays} * 86400;
    env.cell_universe = kCells;
    faults::CsvFaultRates rates;
    rates.duplicate_record = 0.02;
    rates.clock_skew = 0.02;
    rates.negative_duration = 0.02;
    rates.overflow_duration = 0.02;
    rates.unknown_cell = 0.02;
    faults::FaultInjector injector(0x5C12EE, env);
    auto result = injector.corrupt_dataset(clean_base(), rates);
    return Corrupted{std::move(result.dataset), std::move(result.log)};
  }();
  return out;
}

IngestOptions screen_options(ParseMode mode, std::size_t cap) {
  IngestOptions options;
  options.mode = mode;
  options.horizon_s = std::int64_t{kStudyDays} * 86400;
  options.cell_universe = kCells;
  options.max_duration_s = 7 * 86400;
  options.quarantine_cap = cap;
  options.chunk_bytes = 8;
  return options;
}

using Quarantine = std::vector<std::pair<FaultClass, std::string>>;

Quarantine fault_and_reason(const IngestReport& report) {
  Quarantine out;
  for (const QuarantineEntry& e : report.quarantine) {
    out.emplace_back(e.fault, e.reason);
  }
  return out;
}

void expect_same_screen(const IngestReport& csv, const IngestReport& ccdr2,
                        const std::string& where) {
  EXPECT_EQ(csv.counters, ccdr2.counters) << where;
  EXPECT_EQ(csv.rows_read, ccdr2.rows_read) << where;
  EXPECT_EQ(csv.records_accepted, ccdr2.records_accepted) << where;
  EXPECT_EQ(csv.records_dropped, ccdr2.records_dropped) << where;
  EXPECT_EQ(csv.records_repaired, ccdr2.records_repaired) << where;
  EXPECT_EQ(csv.quarantine_overflow, ccdr2.quarantine_overflow) << where;
  EXPECT_EQ(fault_and_reason(csv), fault_and_reason(ccdr2)) << where;
}

TEST(IngestScreenTest, FixtureCarriesEveryScreenedClass) {
  const faults::FaultLog& log = corrupted().log;
  for (const FaultClass fault :
       {FaultClass::kNegativeDuration, FaultClass::kOverflowDuration,
        FaultClass::kClockSkew, FaultClass::kUnknownCell,
        FaultClass::kDuplicateRecord}) {
    EXPECT_GT(log.count(fault), 2u) << name(fault);
  }
}

TEST(IngestScreenTest, LenientCsvAndColumnarScreenAlike) {
  const Dataset& dataset = corrupted().dataset;
  const std::string csv = write_csv_text(dataset);
  const std::string ccdr2 = write_columnar_buffer(dataset);
  for (const std::size_t cap : {std::size_t{8}, std::size_t{4096}}) {
    IngestOptions options = screen_options(ParseMode::kLenient, cap);
    IngestReport col_report;
    const Dataset col = read_columnar_buffer(ccdr2, options, col_report);
    EXPECT_EQ(col_report.total_faults(), corrupted().log.total());
    if (cap > corrupted().log.total()) {
      EXPECT_EQ(col_report.quarantine.size(), corrupted().log.total());
    }
    for (const int width : {1, 4}) {
      options.threads = width;
      const std::string where =
          "cap=" + std::to_string(cap) + " width=" + std::to_string(width);
      IngestReport csv_report;
      const Dataset loaded = read_csv_text(csv, options, csv_report);
      expect_same_screen(csv_report, col_report, where);
      EXPECT_EQ(loaded.all().size(), col.all().size()) << where;
      EXPECT_TRUE(std::equal(loaded.all().begin(), loaded.all().end(),
                             col.all().begin(), col.all().end()))
          << where;
      EXPECT_EQ(loaded.fleet_size(), col.fleet_size()) << where;
      EXPECT_EQ(loaded.study_days(), col.study_days()) << where;
    }
  }
}

TEST(IngestScreenTest, StrictCsvAndColumnarStopAtTheSameRecord) {
  const Dataset& dataset = corrupted().dataset;
  const std::string csv = write_csv_text(dataset);
  const std::string ccdr2 = write_columnar_buffer(dataset);
  IngestOptions options = screen_options(ParseMode::kStrict, 64);

  /// The reason part of "<reason> at byte offset N in <label>".
  const auto reason_of = [](const util::CsvError& e) {
    const std::string what = e.what();
    return what.substr(0, what.find(" at byte offset "));
  };
  IngestReport col_report;
  std::string col_reason;
  try {
    (void)read_columnar_buffer(ccdr2, options, col_report);
    FAIL() << "strict CCDR2 read accepted a faulty record set";
  } catch (const util::CsvError& e) {
    col_reason = reason_of(e);
  }
  for (const int width : {1, 4}) {
    options.threads = width;
    const std::string where = "width=" + std::to_string(width);
    IngestReport csv_report;
    try {
      (void)read_csv_text(csv, options, csv_report);
      ADD_FAILURE() << "strict CSV read accepted a faulty record set, "
                    << where;
    } catch (const util::CsvError& e) {
      EXPECT_EQ(reason_of(e), col_reason) << where;
    }
    expect_same_screen(csv_report, col_report, where);
    EXPECT_EQ(csv_report.total_faults(), 1u) << where;
  }
}

}  // namespace
}  // namespace ccms::cdr
