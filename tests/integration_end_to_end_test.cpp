// End-to-end integration: the full user journey — simulate, export,
// re-import, analyze — must be lossless and reproducible.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "cdr/anonymize.h"
#include "cdr/columnar.h"
#include "cdr/io.h"
#include "core/load_view.h"
#include "core/study.h"
#include "sim/simulator.h"

namespace ccms {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static const sim::Study& study() {
    static const sim::Study s = [] {
      sim::SimConfig config = sim::SimConfig::quick();
      config.fleet.size = 250;
      config.study_days = 21;
      return sim::simulate(config);
    }();
    return s;
  }

  /// Per-test file: ctest runs this binary's cases in parallel processes,
  /// and a shared name would race with another case's TearDown.
  std::string path(const char* name) {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return (std::filesystem::temp_directory_path() / (test + "_" + name))
        .string();
  }
  void TearDown() override {
    std::remove(path("ccms_e2e.csv").c_str());
    std::remove(path("ccms_e2e.ccdr2").c_str());
  }
};

TEST_F(EndToEndTest, CsvRoundTripPreservesEveryAnalysis) {
  cdr::write_csv(study().raw, path("ccms_e2e.csv"));
  const cdr::Dataset reloaded = cdr::read_csv(path("ccms_e2e.csv"));

  const auto load = core::CellLoad::from_background(study().background);
  const core::StudyReport a =
      core::run_study(study().raw, study().topology.cells(), load);
  const core::StudyReport b =
      core::run_study(reloaded, study().topology.cells(), load);

  EXPECT_DOUBLE_EQ(a.connected_time.mean_full, b.connected_time.mean_full);
  EXPECT_DOUBLE_EQ(a.cell_sessions.median, b.cell_sessions.median);
  EXPECT_DOUBLE_EQ(a.presence.cars_overall.mean, b.presence.cars_overall.mean);
  EXPECT_DOUBLE_EQ(a.handovers.median, b.handovers.median);
  EXPECT_EQ(a.handovers.total_handovers(), b.handovers.total_handovers());
  EXPECT_EQ(a.carriers.time_fraction, b.carriers.time_fraction);
  EXPECT_DOUBLE_EQ(a.busy_time.fraction_over_half,
                   b.busy_time.fraction_over_half);
  EXPECT_DOUBLE_EQ(a.segmentation.common_a.non_busy,
                   b.segmentation.common_a.non_busy);
}

TEST_F(EndToEndTest, BinaryRoundTripIsBitExact) {
  cdr::write_columnar(study().raw, path("ccms_e2e.ccdr2"));
  // Simulated traces can carry legitimate exact duplicates, so the
  // duplicate screen stays off for a bitwise round trip.
  cdr::IngestOptions options;
  options.check_duplicates = false;
  cdr::IngestReport report;
  const cdr::Dataset reloaded =
      cdr::read_columnar(path("ccms_e2e.ccdr2"), options, report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(reloaded.fleet_size(), study().raw.fleet_size());
  EXPECT_EQ(reloaded.study_days(), study().raw.study_days());
  ASSERT_EQ(reloaded.size(), study().raw.size());
  for (std::size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded.all()[i], study().raw.all()[i]);
  }
}

TEST_F(EndToEndTest, AnonymizedStudyGivesIdenticalAggregates) {
  const cdr::Dataset anon = cdr::anonymize(study().raw, {.salt = 31337});
  const auto load = core::CellLoad::from_background(study().background);
  const core::StudyReport a =
      core::run_study(study().raw, study().topology.cells(), load);
  const core::StudyReport b =
      core::run_study(anon, study().topology.cells(), load);

  // Aggregates are invariant under the car-id permutation.
  EXPECT_DOUBLE_EQ(a.connected_time.mean_full, b.connected_time.mean_full);
  EXPECT_DOUBLE_EQ(a.connected_time.p995_full, b.connected_time.p995_full);
  EXPECT_DOUBLE_EQ(a.cell_sessions.mean_full, b.cell_sessions.mean_full);
  EXPECT_EQ(a.days.days_per_car.size(), b.days.days_per_car.size());
  EXPECT_DOUBLE_EQ(a.busy_time.fraction_over_half,
                   b.busy_time.fraction_over_half);
  EXPECT_EQ(a.clusters.busy_cells.size(), b.clusters.busy_cells.size());
}

TEST_F(EndToEndTest, RunStudyIsDeterministic) {
  const auto load = core::CellLoad::from_background(study().background);
  const core::StudyReport a =
      core::run_study(study().raw, study().topology.cells(), load);
  const core::StudyReport b =
      core::run_study(study().raw, study().topology.cells(), load);
  EXPECT_EQ(a.clusters.assignment, b.clusters.assignment);
  EXPECT_DOUBLE_EQ(a.connected_time.p995_truncated,
                   b.connected_time.p995_truncated);
}

TEST_F(EndToEndTest, SimulationIsReproducibleAcrossCalls) {
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 250;
  config.study_days = 21;
  const sim::Study again = sim::simulate(config);
  ASSERT_EQ(again.raw.size(), study().raw.size());
  // Spot-check deep equality.
  for (std::size_t i = 0; i < again.raw.size(); i += 1009) {
    EXPECT_EQ(again.raw.all()[i], study().raw.all()[i]);
  }
}

}  // namespace
}  // namespace ccms
