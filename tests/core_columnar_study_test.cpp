// Out-of-core columnar study: read_columnar(write_columnar(ds)) reproduces
// every StudyReport figure bitwise, run_study_columnar equals materialize +
// run_study (including ingest accounting), and the streaming sweep is
// bitwise identical at every thread width — also under block corruption.
#include "core/study.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cdr/columnar.h"
#include "core/load_view.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::core {
namespace {

const sim::Study& fixture_study() {
  return test::cached_study(
      {.seed = 9, .fleet = 120, .days = 10, .grid = 8, .quick = true});
}

StudyOptions columnar_options() {
  StudyOptions options;
  options.threads = 1;
  options.ingest.mode = cdr::ParseMode::kLenient;
  // The dataset is already screened; natural exact duplicates made adjacent
  // by the finalize sort must survive the round trip.
  options.ingest.check_duplicates = false;
  return options;
}

/// CCDR2 bytes of the fixture's raw dataset with deliberately small blocks,
/// so the streaming sweep sees many blocks (and several executor chunks)
/// even at test scale.
std::string small_block_buffer() {
  static const std::string bytes = [] {
    const sim::Study& study = fixture_study();
    std::ostringstream out(std::ios::binary);
    cdr::ColumnarWriter writer(out, study.raw.fleet_size(),
                               study.raw.study_days(),
                               /*block_records=*/512);
    for (const cdr::Connection& c : study.raw.all()) writer.add(c);
    writer.finish();
    return out.str();
  }();
  return bytes;
}

TEST(ColumnarStudyTest, RoundTripReproducesEveryFigureBitwise) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();

  const StudyReport direct =
      run_study(study.raw, study.topology.cells(), load, options);

  cdr::IngestReport ingest;
  const cdr::Dataset round = cdr::read_columnar_buffer(
      cdr::write_columnar_buffer(study.raw), options.ingest, ingest);
  ASSERT_TRUE(ingest.clean());
  const StudyReport via_round =
      run_study(round, study.topology.cells(), load, options);

  std::string why;
  EXPECT_TRUE(study_reports_identical(direct, via_round, &why)) << why;
}

TEST(ColumnarStudyTest, SweepEqualsMaterializedStudy) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const std::string bytes = small_block_buffer();

  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  StudyReport materialized =
      run_study(round, study.topology.cells(), load, options);
  materialized.ingest = ingest;

  const StudyReport swept = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);
  std::string why;
  EXPECT_TRUE(study_reports_identical(materialized, swept, &why)) << why;
  EXPECT_EQ(swept.ingest.rows_read, study.raw.size());
  EXPECT_EQ(swept.ingest.records_accepted, study.raw.size());
}

TEST(ColumnarStudyTest, PathEntryPointEqualsBufferEntryPoint) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const std::string bytes = small_block_buffer();

  const std::string path =
      (std::filesystem::temp_directory_path() / "ccms_columnar_study.ccdr2")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const StudyReport from_path =
      run_study_columnar(path, study.topology.cells(), load, options);
  std::remove(path.c_str());

  const StudyReport from_buffer = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);
  // The two entry points differ only in the ingested byte source; the label
  // is not part of the report.
  std::string why;
  EXPECT_TRUE(study_reports_identical(from_path, from_buffer, &why)) << why;
}

TEST(ColumnarStudyTest, ThreadWidthsProduceIdenticalReports) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const std::string bytes = small_block_buffer();

  StudyOptions options = columnar_options();
  options.threads = 1;
  const StudyReport golden = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);

  for (const int width : {2, 8}) {
    options.threads = width;
    const StudyReport report = run_study_columnar_buffer(
        bytes, study.topology.cells(), load, options);
    std::string why;
    EXPECT_TRUE(study_reports_identical(golden, report, &why))
        << "width " << width << ": " << why;
  }
}

TEST(ColumnarStudyTest, LenientSweepMatchesMaterializedUnderCorruption) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  std::string bytes = small_block_buffer();

  // Flip one payload byte in a middle block: both paths must drop exactly
  // that block and agree on everything else.
  {
    cdr::IngestReport probe;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(bytes, options.ingest, probe);
    ASSERT_GE(file.blocks().size(), 3u);
    const std::uint64_t offset = file.blocks()[1].offset + 5;
    bytes[static_cast<std::size_t>(offset)] ^= 0x10;
  }

  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  EXPECT_EQ(ingest.count(cdr::FaultClass::kChecksumMismatch), 1u);
  EXPECT_GT(ingest.records_dropped, 0u);
  StudyReport materialized =
      run_study(round, study.topology.cells(), load, options);
  materialized.ingest = ingest;

  for (const int width : {1, 8}) {
    StudyOptions wide = options;
    wide.threads = width;
    const StudyReport swept = run_study_columnar_buffer(
        bytes, study.topology.cells(), load, wide);
    std::string why;
    EXPECT_TRUE(study_reports_identical(materialized, swept, &why))
        << "width " << width << ": " << why;
  }
}

TEST(ColumnarStudyTest, StrictModeThrowsOnCorruptBlock) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  std::string bytes = small_block_buffer();
  {
    StudyOptions probe_options = columnar_options();
    cdr::IngestReport probe;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(bytes, probe_options.ingest, probe);
    bytes[static_cast<std::size_t>(file.blocks()[0].offset + 3)] ^= 0x08;
  }
  StudyOptions options = columnar_options();
  options.ingest.mode = cdr::ParseMode::kStrict;
  EXPECT_THROW(run_study_columnar_buffer(bytes, study.topology.cells(), load,
                                         options),
               util::CsvError);
}

TEST(ColumnarStudyTest, HeaderWithoutStudyDaysMatchesMaterializedStudy) {
  // A CCDR2 header with study_days = 0 leaves the geometry unknown until
  // every record is seen: the sweep materializes the file and folds the
  // Dataset instead, which must equal read_columnar + run_study.
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  std::ostringstream out(std::ios::binary);
  cdr::ColumnarWriter writer(out, study.raw.fleet_size(), /*study_days=*/0,
                             /*block_records=*/512);
  for (const cdr::Connection& c : study.raw.all()) writer.add(c);
  writer.finish();
  const std::string bytes = out.str();

  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  ASSERT_GT(round.study_days(), 0);
  StudyReport materialized =
      run_study(round, study.topology.cells(), load, options);
  materialized.ingest = ingest;
  ASSERT_GT(materialized.clean.total_removed(), 0u);

  for (const int width : {1, 8}) {
    StudyOptions wide = options;
    wide.threads = width;
    const StudyReport swept = run_study_columnar_buffer(
        bytes, study.topology.cells(), load, wide);
    std::string why;
    EXPECT_TRUE(study_reports_identical(materialized, swept, &why))
        << "width " << width << ": " << why;
    EXPECT_EQ(swept.connected_time.study_days, round.study_days());
  }
}

TEST(ColumnarStudyTest, ComparatorReportsFirstDivergence) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const StudyReport a =
      run_study(study.raw, study.topology.cells(), load, options);

  StudyOptions other = options;
  other.truncation_cap = 300;  // changes connected-time truncation
  const StudyReport b =
      run_study(study.raw, study.topology.cells(), load, other);
  std::string why;
  EXPECT_FALSE(study_reports_identical(a, b, &why));
  EXPECT_FALSE(why.empty());
}

TEST(ColumnarStudyTest, ComparatorNamesEveryDifferingMember) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyReport base =
      run_study(study.raw, study.topology.cells(), load, columnar_options());
  ASSERT_TRUE(study_reports_identical(base, base));

  // One perturbation per StudyReport member. segmentation.config was the
  // field a hand-written field list left out.
  const std::vector<std::pair<std::string, std::function<void(StudyReport&)>>>
      perturbations = {
          {"ingest", [](StudyReport& r) { r.ingest.bom_stripped = true; }},
          {"clean", [](StudyReport& r) { ++r.clean.implausible_removed; }},
          {"presence",
           [](StudyReport& r) { r.presence.cells_by_weekday[6].stdev += 1; }},
          {"connected_time",
           [](StudyReport& r) { r.connected_time.p995_truncated += 1; }},
          {"days", [](StudyReport& r) { r.days.histogram.add(0); }},
          {"busy_time",
           [](StudyReport& r) { r.busy_time.fraction_over_half += 1; }},
          {"segmentation",
           [](StudyReport& r) { r.segmentation.config.hi_share += 0.1; }},
          {"cell_sessions", [](StudyReport& r) { ++r.cell_sessions.cap; }},
          {"handovers", [](StudyReport& r) { r.handovers.p70 += 1; }},
          {"carriers", [](StudyReport& r) { ++r.carriers.car_count; }},
          {"clusters",
           [](StudyReport& r) { r.clusters.load_threshold += 1; }},
      };
  for (const auto& [member, perturb] : perturbations) {
    StudyReport changed = base;
    perturb(changed);
    std::string why;
    EXPECT_FALSE(study_reports_identical(base, changed, &why)) << member;
    EXPECT_EQ(why, member);
    why.clear();
    EXPECT_FALSE(study_reports_identical(changed, base, &why)) << member;
    EXPECT_EQ(why, member);
  }
}

}  // namespace
}  // namespace ccms::core
