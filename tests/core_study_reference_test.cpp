// run_study against an independent reference: the same figures composed by
// hand from the public building blocks — cdr::clean, each analyze_* entry
// point, segment_cars, ConcurrencyGrid::build and cluster_busy_cells. The
// batch driver folds every pass in one parallel sweep; this composition runs
// each analysis on its own over a cleaned copy, so agreement is a check of
// the fold, not of the fold against itself.
#include "core/study.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cdr/clean.h"
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

}  // namespace
}  // namespace ccms::core
