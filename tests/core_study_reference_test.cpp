// run_study against an independent reference: the same figures composed by
// hand from the public building blocks — cdr::clean, each analyze_* entry
// point, segment_cars, ConcurrencyGrid::build and cluster_busy_cells. The
// batch driver folds every pass in one parallel sweep; this composition runs
// each analysis on its own over a cleaned copy, so agreement is a check of
// the fold, not of the fold against itself. In particular the fold counts
// concurrency only on Fig 11's busy cells, while ConcurrencyGrid::build here
// counts every cell and leaves the filter to cluster_busy_cells.
#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cdr/clean.h"
#include "cdr/columnar.h"
#include "fleet/archetype.h"
#include "fleet/car.h"
#include "test_helpers.h"

namespace ccms::core {
namespace {

StudyReport reference_study(const cdr::Dataset& raw,
                            const net::CellTable& cells, const CellLoad& load,
                            const StudyOptions& options) {
  StudyReport report;
  const cdr::Dataset cleaned = cdr::clean(raw, options.clean, report.clean);
  report.presence = analyze_presence(cleaned);
  report.connected_time =
      analyze_connected_time(cleaned, options.truncation_cap);
  report.days = analyze_days_on_network(cleaned);
  report.busy_time =
      analyze_busy_time(cleaned, load, options.busy_prb_threshold);
  report.segmentation =
      segment_cars(report.days, report.busy_time, options.segmentation);
  report.cell_sessions = analyze_cell_sessions(cleaned, options.truncation_cap);
  report.handovers = analyze_handovers(cleaned, cells);
  report.carriers = analyze_carrier_usage(cleaned, cells);
  report.clusters = cluster_busy_cells(
      ConcurrencyGrid::build(cleaned), load, options.cluster_load_threshold,
      options.cluster_k, options.cluster_seed);
  return report;
}

const sim::Study& quick_study() {
  return test::cached_study(
      {.seed = 1, .fleet = 300, .days = 21, .quick = true});
}

/// Checks run_study at widths {1, 8} against the reference; returns the
/// reference so callers can assert what the fixture exercised.
StudyReport expect_matches_reference(const cdr::Dataset& raw,
                                     const sim::Study& world) {
  const CellLoad load = CellLoad::from_background(world.background);
  const net::CellTable& cells = world.topology.cells();
  StudyOptions options;
  const StudyReport expected = reference_study(raw, cells, load, options);
  for (const int width : {1, 8}) {
    options.threads = width;
    const StudyReport actual = run_study(raw, cells, load, options);
    std::string why;
    EXPECT_TRUE(study_reports_identical(expected, actual, &why))
        << "width " << width << ": " << why;
  }
  return expected;
}

TEST(StudyReferenceTest, QuickStudyMatchesHandComposition) {
  const sim::Study& study = quick_study();
  const StudyReport expected = expect_matches_reference(study.raw, study);
  // The fixture carries §3 artifacts, so the inline clean is exercised.
  EXPECT_GT(expected.clean.total_removed(), 0u);
  EXPECT_GT(expected.clusters.busy_cells.size(), 0u);
}

TEST(StudyReferenceTest, PerArchetypeSlicesMatchHandComposition) {
  const sim::Study& study = quick_study();
  for (const fleet::Archetype archetype :
       {fleet::Archetype::kRegularCommuter, fleet::Archetype::kHeavyUser,
        fleet::Archetype::kRareDriver}) {
    std::set<std::uint32_t> members;
    for (const fleet::CarProfile& car : study.fleet) {
      if (car.archetype == archetype) members.insert(car.id.value);
    }
    ASSERT_FALSE(members.empty()) << static_cast<int>(archetype);

    cdr::Dataset slice;
    slice.set_fleet_size(study.raw.fleet_size());
    slice.set_study_days(study.raw.study_days());
    for (const cdr::Connection& c : study.raw.all()) {
      if (members.count(c.car.value)) slice.add(c);
    }
    slice.finalize();

    SCOPED_TRACE(testing::Message()
                 << "archetype=" << static_cast<int>(archetype)
                 << " cars=" << members.size());
    (void)expect_matches_reference(slice, study);
  }
}

TEST(StudyReferenceTest, EmptyDatasetMatchesHandComposition) {
  cdr::Dataset empty;
  empty.finalize();
  (void)expect_matches_reference(empty, quick_study());
}

TEST(StudyReferenceTest, AllDirtyDatasetMatchesHandComposition) {
  // Every record is one §3 artifact class, so cleaning leaves nothing but
  // the study geometry the raw records pinned.
  const cdr::Dataset dirty = test::make_dataset({
      test::conn(0, 1, 100, 3600),
      test::conn(1, 2, 86'400, 0),
      test::conn(2, 3, 3 * 86'400, -5),
      test::conn(3, 4, 5 * 86'400, 49 * 3600),
  });
  ASSERT_GT(dirty.study_days(), 0);
  const StudyReport expected = expect_matches_reference(dirty, quick_study());
  EXPECT_EQ(expected.clean.total_removed(), dirty.size());
}

/// `load` without its last cell, so that cell (still in the topology) is
/// one the load grid does not know, and with `idle`'s row zeroed. Both
/// then have weekly mean exactly 0, on the boundary of threshold 0.
CellLoad boundary_load(const CellLoad& load, CellId idle) {
  std::vector<float> grid;
  for (std::uint32_t c = 0; c + 1 < load.cell_count(); ++c) {
    const auto profile = load.profile(CellId{c});
    grid.insert(grid.end(), profile.begin(), profile.end());
  }
  const auto row = grid.begin() + static_cast<std::ptrdiff_t>(
                                      idle.value * time::kBins15PerWeek);
  std::fill(row, row + time::kBins15PerWeek, 0.0f);
  return CellLoad(std::move(grid));
}

TEST(StudyReferenceTest, BusyCellFilterMatchesHandCompositionAtEachThreshold) {
  const sim::Study& study = quick_study();
  const net::CellTable& cells = study.topology.cells();
  const CellId idle = study.raw.all().front().cell;
  const CellLoad load = boundary_load(study.background, idle);
  const CellId unknown{static_cast<std::uint32_t>(load.cell_count())};
  ASSERT_LT(idle.value, unknown.value);
  ASSERT_LT(unknown.value, cells.size());

  // The quick study plus one clean record on the unknown cell, from a car
  // of its own.
  cdr::Dataset raw;
  raw.set_fleet_size(study.raw.fleet_size());
  raw.set_study_days(study.raw.study_days());
  for (const cdr::Connection& c : study.raw.all()) raw.add(c);
  raw.add(test::conn(study.raw.fleet_size(), unknown.value,
                     time::at(2, 10), 400));
  raw.finalize();

  // Small CCDR2 blocks, so the columnar fold has several chunks to merge.
  std::ostringstream out(std::ios::binary);
  cdr::ColumnarWriter writer(out, raw.fleet_size(), raw.study_days(),
                             /*block_records=*/2048);
  for (const cdr::Connection& c : raw.all()) writer.add(c);
  writer.finish();
  const std::string bytes = out.str();

  StudyOptions options;
  // Natural exact duplicates made adjacent by the finalize sort must survive
  // the CCDR2 round trip, as they survive run_study.
  options.ingest.check_duplicates = false;
  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  for (const double threshold : {0.0, 0.70, 0.99}) {
    options.cluster_load_threshold = threshold;
    const StudyReport expected = reference_study(raw, cells, load, options);
    StudyReport expected_columnar = reference_study(round, cells, load, options);
    expected_columnar.ingest = ingest;

    const auto& busy = expected.clusters.busy_cells;
    const auto is_busy = [&](CellId cell) {
      return std::find(busy.begin(), busy.end(), cell) != busy.end();
    };
    // Both zero-load cells are busy exactly at threshold 0 (>=, not >).
    EXPECT_EQ(is_busy(unknown), threshold == 0.0) << threshold;
    EXPECT_EQ(is_busy(idle), threshold == 0.0) << threshold;
    if (threshold == 0.99) {
      EXPECT_TRUE(expected.clusters.clusters.empty());
      EXPECT_TRUE(busy.empty());
    } else {
      EXPECT_FALSE(expected.clusters.clusters.empty()) << threshold;
    }

    for (const int width : {1, 8}) {
      options.threads = width;
      SCOPED_TRACE(testing::Message()
                   << "threshold=" << threshold << " width=" << width);
      std::string why;
      EXPECT_TRUE(study_reports_identical(
          expected, run_study(raw, cells, load, options), &why))
          << "run_study: " << why;
      EXPECT_TRUE(study_reports_identical(
          expected_columnar,
          run_study_columnar_buffer(bytes, cells, load, options), &why))
          << "run_study_columnar_buffer: " << why;
    }
  }
}

}  // namespace
}  // namespace ccms::core
