// Hardened-ingest behaviour: messy-but-honest inputs (BOM, CRLF, trailing
// blank lines) parse everywhere including the legacy entry points; lenient
// mode quarantines with exact byte offsets and reasons; generated corpora of
// clean, edge and faulty rows read exactly as a line-by-line reference
// reads them. The binary format's hostile-header cases live in
// cdr_columnar_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdr/columnar.h"
#include "cdr/io.h"
#include "core/study.h"
#include "test_helpers.h"
#include "util/csv.h"
#include "util/rng.h"

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

// ------------------------------------------------------- reserved car id

/// Car UINT32_MAX: a fleet holding it needs 2^32 ids, one more than a
/// uint32 fleet size counts, so Dataset::finalize's max_car + 1 wrapped to
/// 0 and its offset table was written past its end. The record screen that
/// CSV and CCDR2 share books it as a bad field: strict throws, lenient drops.
TEST(ReservedCarId, CsvStrictThrowsAndLenientDrops) {
  const std::string text = "0,1,2,3\n4294967295,1,5,3\n";
  IngestOptions options;
  IngestReport strict;
  try {
    (void)read_csv_text(text, options, strict, "trace.csv");
    FAIL() << "strict ingest must throw";
  } catch (const util::CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("car id 4294967295"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("at byte offset 8 in trace.csv"),
              std::string::npos)
        << e.what();
  }

  options.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset loaded = read_csv_text(text, options, report);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.fleet_size(), 1u);
  EXPECT_EQ(loaded.of_car(CarId{0}).size(), 1u);
  EXPECT_EQ(report.count(FaultClass::kBadField), 1u);
  EXPECT_EQ(report.records_dropped, 1u);
  EXPECT_EQ(report.records_accepted, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].byte_offset, 8u);
  EXPECT_EQ(report.quarantine[0].raw, "4294967295,1,5,3");
}

TEST(ReservedCarId, ColumnarBlockStrictThrowsAndLenientDrops) {
  const sim::Study& study = test::cached_study(
      {.seed = 3, .fleet = 20, .days = 2, .grid = 4, .quick = true});
  const core::CellLoad load = core::CellLoad::from_background(study.background);
  std::ostringstream out(std::ios::binary);
  {
    ColumnarWriter writer(out, /*fleet_size=*/1, /*study_days=*/1);
    writer.add(conn(0, 1, 2, 3));
    writer.add(conn(std::numeric_limits<std::uint32_t>::max(), 1, 5, 3));
    writer.finish();
  }
  const std::string bytes = out.str();

  IngestOptions options;
  IngestReport strict;
  EXPECT_THROW((void)read_columnar_buffer(bytes, options, strict),
               util::CsvError);
  core::StudyOptions study_options;
  study_options.ingest = options;
  EXPECT_THROW((void)core::run_study_columnar_buffer(
                   bytes, study.topology.cells(), load, study_options),
               util::CsvError);

  options.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset loaded = read_columnar_buffer(bytes, options, report);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.fleet_size(), 1u);
  EXPECT_EQ(report.count(FaultClass::kBadField), 1u);
  EXPECT_EQ(report.records_dropped, 1u);

  // The fold drops the same record, so its fleet-size bump sees car 0 only.
  study_options.ingest = options;
  study_options.threads = 2;
  core::StudyReport materialized =
      core::run_study(loaded, study.topology.cells(), load, study_options);
  materialized.ingest = report;
  const core::StudyReport swept = core::run_study_columnar_buffer(
      bytes, study.topology.cells(), load, study_options);
  std::string why;
  EXPECT_TRUE(core::study_reports_identical(materialized, swept, &why))
      << why;
  EXPECT_EQ(swept.ingest.count(FaultClass::kBadField), 1u);
}

TEST(ReservedCarId, FinalizeRejectsItBeforeTouchingTheDataset) {
  Dataset dataset;
  dataset.add(conn(std::numeric_limits<std::uint32_t>::max(), 1, 5, 3));
  dataset.add(conn(0, 1, 2, 3));
  EXPECT_THROW(dataset.finalize(), std::invalid_argument);
  EXPECT_FALSE(dataset.finalized());
  EXPECT_EQ(dataset.all()[1].car.value, 0u);
}

// ------------------------------------------------ generated-row differential

/// strtoll with the reader's field rules: the reference for util::parse_i64.
/// Returns the error text, or nullopt and the value in `v`.
std::optional<std::string> reference_i64(const std::string& field,
                                         std::int64_t& v) {
  if (field.empty()) return "empty integer field";
  errno = 0;
  char* end = nullptr;
  v = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) {
    return "bad integer field: " + field;
  }
  return std::nullopt;
}

struct ReferenceRead {
  Dataset dataset;
  IngestReport report;
  std::optional<std::string> error;  ///< the strict-mode exception text
};

/// The reader's documented behaviour as one sequential pass, line by line,
/// built from split_csv_line and raw strtoll: no chunks, seams or views.
/// Records go through the same §7 RecordScreen the reader uses.
ReferenceRead reference_read(const std::string& text,
                             const IngestOptions& options,
                             const std::string& label) {
  ReferenceRead ref;
  IngestReport& report = ref.report;
  report.mode = options.mode;
  report.bytes_consumed = text.size();
  RecordScreen screen(options, report, label);
  std::vector<Connection> accepted;
  std::optional<std::uint32_t> fleet;
  std::optional<int> days;
  const auto drop = [&](FaultClass fault, std::uint64_t at, std::string why,
                        const std::string& line) {
    ++report.records_dropped;
    screen.fault(fault, at, std::move(why), line);
  };
  try {
    std::size_t offset = 0;
    while (offset < text.size()) {
      const std::size_t eol = std::min(text.find('\n', offset), text.size());
      std::string line = text.substr(offset, eol - offset);
      const std::uint64_t at = offset;
      offset = eol + 1;
      if (at == 0 && line.rfind("\xEF\xBB\xBF", 0) == 0) {
        line.erase(0, 3);
        report.bom_stripped = true;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      if (line[0] == '#') {
        // "#fleet_size=N,study_days=M"; a damaged value ends the row.
        std::vector<std::string> meta;
        try {
          meta = util::split_csv_line(line);
        } catch (const util::CsvError&) {
          continue;
        }
        std::int64_t v = 0;
        const std::string key = "#fleet_size=";
        if (meta[0].rfind(key, 0) == 0) {
          if (reference_i64(meta[0].substr(key.size()), v)) continue;
          fleet = static_cast<std::uint32_t>(v);
        }
        if (meta.size() > 1 && meta[1].rfind("study_days=", 0) == 0 &&
            !reference_i64(meta[1].substr(11), v)) {
          days = static_cast<int>(v);
        }
        continue;
      }
      std::vector<std::string> fields;
      try {
        fields = util::split_csv_line(line);
      } catch (const util::CsvError& e) {
        ++report.rows_read;
        drop(FaultClass::kBadField, at, e.what(), line);
        continue;
      }
      if (fields[0].empty() || fields[0] == "car") continue;
      ++report.rows_read;
      if (fields.size() < 4) {
        drop(FaultClass::kTruncatedLine, at,
             "row has " + std::to_string(fields.size()) + " fields, need 4",
             line);
        continue;
      }
      std::int64_t v[4] = {};
      std::optional<std::string> bad;
      for (int k = 0; k < 4 && !bad; ++k) bad = reference_i64(fields[k], v[k]);
      if (bad) {
        drop(FaultClass::kBadField, at, *bad, line);
        continue;
      }
      constexpr std::int64_t kIdMax = std::numeric_limits<std::uint32_t>::max();
      if (v[0] < 0 || v[0] > kIdMax || v[1] < 0 || v[1] > kIdMax) {
        drop(FaultClass::kBadField, at, "car/cell id outside uint32 range",
             line);
        continue;
      }
      const auto cell = static_cast<std::uint32_t>(v[1]);
      if (!screen.values(static_cast<std::uint32_t>(v[0]), v[2], cell, v[3],
                         at, line)) {
        continue;
      }
      const Connection c{CarId{static_cast<std::uint32_t>(v[0])}, CellId{cell},
                         v[2], static_cast<std::int32_t>(v[3])};
      if (!screen.sequence(c, at, line)) continue;
      accepted.push_back(c);
      ++report.records_accepted;
    }
  } catch (const util::CsvError& e) {
    ref.error = e.what();
    return ref;
  }
  if (fleet) ref.dataset.set_fleet_size(*fleet);
  if (days) ref.dataset.set_study_days(*days);
  ref.dataset.add(std::span<const Connection>(accepted));
  ref.dataset.finalize();
  return ref;
}

/// A generated CSV corpus and, when it holds no faulty row, the records a
/// correct reader accepts from it, in input order.
struct GeneratedCsv {
  std::string text;
  bool clean = true;
  std::vector<Connection> records;
};

constexpr std::int64_t kGenHorizon = 10 * 86400;
constexpr std::uint32_t kGenCells = 1000;

/// Clean rows, each spelled plainly or in one of the reader's tolerated
/// forms (quoted digits, whitespace or `+` before a number, leading zeros,
/// `-0`, a mid-field `\r`, CRLF, extra fields, a trailing comma), mixed
/// with rows that carry no record (BOM, header, `#` metadata, blank and
/// tab-only lines, an empty first field) and, at `fault_rate`, rows every
/// reader must reject or repair: 3 fields, unterminated and doubled quotes,
/// ids beyond uint32, malformed and out-of-range integers, duplicates and
/// out-of-order rows.
GeneratedCsv generate_csv(std::uint64_t seed, double fault_rate) {
  util::Rng rng(seed);
  GeneratedCsv gen;
  std::string& text = gen.text;
  if (rng.bernoulli(0.5)) text += "\xEF\xBB\xBF";
  const auto eol = [&] { text += rng.bernoulli(0.3) ? "\r\n" : "\n"; };
  // Integer tokens that are not a plain base-10 value of a record field.
  const char* const bad_tokens[] = {
      "",    "-",   "+-7",  "- 7", "0x1F", "1e3", "7 ", "1.5", "\"1\"\"2\"",
      "9223372036854775807",  "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809"};
  const auto spell = [&](std::int64_t v) -> std::string {
    const std::string plain = std::to_string(v);
    switch (rng.uniform_int(0, 9)) {
      case 0: return "\"" + plain + "\"";
      case 1: return " " + plain;
      case 2: return "\t" + plain;
      case 3: return "+" + plain;
      case 4: return "00" + plain;
      case 5: return v == 0 ? "-0" : plain;
      case 6: return plain.size() > 1 ? plain.substr(0, 1) + "\r" +
                                            plain.substr(1)
                                      : plain;
      default: return plain;
    }
  };

  std::uint32_t car = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  std::int64_t start = rng.uniform_int(0, 1000);
  std::string previous_row;
  const int rows = static_cast<int>(rng.uniform_int(20, 160));
  for (int row = 0; row < rows; ++row) {
    const auto kind = rng.bernoulli(fault_rate) ? rng.uniform_int(10, 14)
                                                : rng.uniform_int(0, 9);
    if (kind == 0) {
      switch (rng.uniform_int(0, 6)) {
        case 0: text += "car,cell,start_s,duration_s"; break;
        case 1:
          text += "#fleet_size=" + std::to_string(rng.uniform_int(0, 90)) +
                  ",study_days=" + std::to_string(rng.uniform_int(1, 12));
          break;
        case 2: text += "#fleet_size=x,study_days=3"; break;
        case 3: text += "#source=sim,study_days=4"; break;
        case 4: break;  // blank line
        case 5: text += "\t \t"; break;
        default: text += ",5,300,40"; break;  // no car: not a row
      }
      eol();
      continue;
    }
    if (kind >= 10) {
      std::string bad;
      switch (kind) {
        case 10: bad = "1,2,3"; break;
        case 11: bad = "\"1,2,3,4"; break;
        case 12:
          bad = rng.bernoulli(0.5) ? "4294967296,1,2,3" : "1,-1,2,3";
          break;
        case 13: {
          std::string f[4] = {"1", "2", "300", "40"};
          f[rng.uniform_int(0, 3)] =
              bad_tokens[rng.uniform_int(0, std::size(bad_tokens) - 1)];
          bad = f[0] + "," + f[1] + "," + f[2] + "," + f[3];
          break;
        }
        default:
          // A copy of the previous row, or a row that sorts before it.
          bad = previous_row.empty() || rng.bernoulli(0.5)
                    ? previous_row
                    : std::to_string(car) + ",7," + std::to_string(start - 1) +
                          ",5";
          break;
      }
      gen.clean = false;
      text += bad;
      eol();
      continue;
    }
    if (rng.bernoulli(0.1)) {
      ++car;
      start = rng.uniform_int(0, 1000);
    } else {
      start = std::min(start + rng.uniform_int(0, 50000), kGenHorizon - 1);
    }
    const Connection c{CarId{car},
                       CellId{static_cast<std::uint32_t>(
                           rng.uniform_int(0, kGenCells - 1))},
                       start,
                       static_cast<std::int32_t>(rng.uniform_int(0, 3600))};
    if (!gen.records.empty() && !ByCarThenStart{}(gen.records.back(), c)) {
      continue;  // keep the clean records strictly ascending
    }
    gen.records.push_back(c);
    std::string line = spell(c.car.value) + "," + spell(c.cell.value) + "," +
                       spell(c.start) + "," + spell(c.duration_s);
    switch (rng.uniform_int(0, 5)) {
      case 0: line += ",extra"; break;
      case 1: line += ","; break;
      case 2: line += ",\"say \"\"hi\"\"\""; break;
      default: break;
    }
    previous_row = line;
    text += line;
    eol();
  }
  return gen;
}

void expect_same_report(const IngestReport& got, const IngestReport& want) {
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.bytes_consumed, want.bytes_consumed);
  EXPECT_EQ(got.rows_read, want.rows_read);
  EXPECT_EQ(got.records_accepted, want.records_accepted);
  EXPECT_EQ(got.records_dropped, want.records_dropped);
  EXPECT_EQ(got.records_repaired, want.records_repaired);
  EXPECT_EQ(got.bom_stripped, want.bom_stripped);
  for (std::size_t k = 0; k < kFaultClassCount; ++k) {
    EXPECT_EQ(got.counters[k], want.counters[k])
        << name(static_cast<FaultClass>(k));
  }
  EXPECT_EQ(got.quarantine_overflow, want.quarantine_overflow);
  ASSERT_EQ(got.quarantine.size(), want.quarantine.size());
  for (std::size_t i = 0; i < got.quarantine.size(); ++i) {
    SCOPED_TRACE("quarantine entry " + std::to_string(i));
    EXPECT_EQ(got.quarantine[i].fault, want.quarantine[i].fault);
    EXPECT_EQ(got.quarantine[i].byte_offset, want.quarantine[i].byte_offset);
    EXPECT_EQ(got.quarantine[i].reason, want.quarantine[i].reason);
    EXPECT_EQ(got.quarantine[i].raw, want.quarantine[i].raw);
  }
}

void expect_same_dataset(const Dataset& got, const Dataset& want) {
  EXPECT_EQ(got.fleet_size(), want.fleet_size());
  EXPECT_EQ(got.study_days(), want.study_days());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::equal(got.all().begin(), got.all().end(),
                         want.all().begin()));
  for (std::uint32_t car = 0; car < want.fleet_size(); ++car) {
    EXPECT_EQ(got.of_car(CarId{car}).size(), want.of_car(CarId{car}).size())
        << "car " << car;
  }
}

/// Generated corpora read in both modes at widths 1 and 4, with 8-byte
/// chunks so nearly every line starts a chunk: the Dataset and every
/// IngestReport field must equal the line-by-line reference's. On a corpus
/// without faulty rows, the reference must also accept exactly the records
/// the generator wrote, so the reference itself is checked against them.
TEST(IngestDifferential, GeneratedRowsMatchTheLineByLineReference) {
  const std::string label = "generated.csv";
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    // Clean corpora, corpora with a rare fault (a strict read stops deep in
    // the input) and corpora dense with faults.
    const double fault_rates[] = {0.0, 0.02, 0.3};
    const GeneratedCsv gen =
        generate_csv(0xC5F0000 + seed, fault_rates[seed % 3]);
    for (const ParseMode mode : {ParseMode::kStrict, ParseMode::kLenient}) {
      IngestOptions options;
      options.mode = mode;
      options.horizon_s = kGenHorizon;
      options.cell_universe = kGenCells;
      options.quarantine_cap = seed % 2 == 0 ? 4 : 1000;
      options.chunk_bytes = 8;
      const ReferenceRead want = reference_read(gen.text, options, label);
      if (gen.clean) {
        SCOPED_TRACE("reference, seed " + std::to_string(seed));
        ASSERT_FALSE(want.error.has_value()) << *want.error;
        ASSERT_EQ(want.dataset.size(), gen.records.size());
        EXPECT_TRUE(std::equal(gen.records.begin(), gen.records.end(),
                               want.dataset.all().begin()));
        EXPECT_TRUE(want.report.clean());
      }
      for (const int width : {1, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     (mode == ParseMode::kStrict ? "strict" : "lenient") +
                     ", width " + std::to_string(width));
        options.threads = width;
        IngestReport report;
        std::optional<Dataset> got;
        std::optional<std::string> error;
        try {
          got.emplace(read_csv_text(gen.text, options, report, label));
        } catch (const util::CsvError& e) {
          error = e.what();
        }
        EXPECT_EQ(error, want.error);
        expect_same_report(report, want.report);
        if (got && !want.error) expect_same_dataset(*got, want.dataset);
      }
    }
  }
}

}  // namespace
}  // namespace ccms::cdr
