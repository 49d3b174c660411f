// End-to-end test of the full pipeline on a simulated quick study, checking
// the *shapes* the paper reports rather than exact values.
#include "core/study.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/report.h"
#include "sim/simulator.h"

namespace ccms::core {
namespace {

class StudyTest : public ::testing::Test {
 protected:
  static const sim::Study& study() {
    static const sim::Study s = [] {
      sim::SimConfig config = sim::SimConfig::quick();
      config.fleet.size = 600;
      config.study_days = 42;
      return sim::simulate(config);
    }();
    return s;
  }
  static const StudyReport& report() {
    static const StudyReport r = [] {
      const auto load = CellLoad::from_background(study().background);
      return run_study(study().raw, study().topology.cells(), load);
    }();
    return r;
  }
};

TEST_F(StudyTest, CleaningRemovedArtifactsOnly) {
  EXPECT_GT(report().clean.hour_artifacts_removed, 0u);
  EXPECT_EQ(report().clean.nonpositive_removed, 0u);
  EXPECT_EQ(report().clean.implausible_removed, 0u);
}

TEST_F(StudyTest, PresenceInPlausibleBand) {
  // Paper Table 1: overall ~76% of cars per day.
  EXPECT_GT(report().presence.cars_overall.mean, 0.60);
  EXPECT_LT(report().presence.cars_overall.mean, 0.90);
}

TEST_F(StudyTest, WeekdaysBusierThanSundays) {
  const auto& p = report().presence;
  const auto tue = static_cast<std::size_t>(time::Weekday::kTuesday);
  const auto sun = static_cast<std::size_t>(time::Weekday::kSunday);
  EXPECT_GT(p.cars_by_weekday[tue].mean, p.cars_by_weekday[sun].mean);
}

TEST_F(StudyTest, ConnectedTimeOrdering) {
  const auto& ct = report().connected_time;
  EXPECT_GT(ct.mean_full, 0.01);
  EXPECT_LT(ct.mean_full, 0.25);
  EXPECT_LT(ct.mean_truncated, ct.mean_full);
  EXPECT_GT(ct.p995_full, ct.mean_full);
}

TEST_F(StudyTest, SessionDurationShape) {
  // Fig 9's shape: short median, heavy tail, truncation bites.
  const auto& cs = report().cell_sessions;
  EXPECT_GT(cs.median, 20);
  EXPECT_LT(cs.median, 300);
  EXPECT_GT(cs.mean_full, 2 * cs.median);
  EXPECT_LT(cs.mean_truncated, cs.mean_full);
  EXPECT_GT(cs.cdf_at_cap, 0.5);
  EXPECT_LT(cs.cdf_at_cap, 0.95);
}

TEST_F(StudyTest, HandoversDominatedByInterStation) {
  const auto& h = report().handovers;
  EXPECT_GT(h.share(net::HandoverType::kInterStation), 0.8);
  EXPECT_LT(h.share(net::HandoverType::kInterTechnology), 0.05);
  EXPECT_LT(h.share(net::HandoverType::kInterSector), 0.10);
  EXPECT_GE(h.p90, h.p70);
  EXPECT_GE(h.p70, h.median);
}

TEST_F(StudyTest, CarrierOrderingMatchesTable3) {
  const auto& c = report().carriers;
  // Time share: C3 > C4 ~ C1 > C2 >> C5.
  EXPECT_GT(c.time_fraction[2], c.time_fraction[0]);
  EXPECT_GT(c.time_fraction[2], c.time_fraction[3]);
  EXPECT_GT(c.time_fraction[0], c.time_fraction[1]);
  EXPECT_LT(c.time_fraction[4], 0.01);
  // Cars: nearly everyone touches C1 and C3.
  EXPECT_GT(c.cars_fraction[0], 0.9);
  EXPECT_GT(c.cars_fraction[2], 0.9);
  EXPECT_LT(c.cars_fraction[3], c.cars_fraction[0]);
}

TEST_F(StudyTest, SegmentationRowsConsistent) {
  const auto& s = report().segmentation;
  EXPECT_NEAR(s.rare_a.total() + s.common_a.total(), 1.0, 1e-9);
  EXPECT_NEAR(s.rare_b.total() + s.common_b.total(), 1.0, 1e-9);
  // The 30-day rare band contains the 10-day one.
  EXPECT_GE(s.rare_b.total(), s.rare_a.total());
  // Most of the fleet is common + non-busy (paper: 59% / 54.9%).
  EXPECT_GT(s.common_a.non_busy, 0.5);
}

TEST_F(StudyTest, BusyTimeMostlyLow) {
  const auto& b = report().busy_time;
  EXPECT_LT(b.shares.median(), 0.35);
  EXPECT_LT(b.fraction_over_half, 0.2);
}

TEST_F(StudyTest, DaysHistogramCoversFleet) {
  EXPECT_EQ(report().days.days_per_car.size(),
            report().busy_time.per_car.size());
  for (const int days : report().days.days_per_car) {
    EXPECT_GE(days, 1);
    EXPECT_LE(days, 42);
  }
}

TEST_F(StudyTest, PerCarListsAligned) {
  const auto& days = report().days;
  const auto& busy = report().busy_time;
  ASSERT_EQ(days.cars.size(), busy.per_car.size());
  for (std::size_t i = 0; i < days.cars.size(); ++i) {
    EXPECT_EQ(days.cars[i], busy.per_car[i].car);
  }
}

TEST_F(StudyTest, ClustersProduced) {
  const auto& c = report().clusters;
  ASSERT_EQ(c.clusters.size(), 2u);
  EXPECT_GT(c.busy_cells.size(), 0u);
  EXPECT_EQ(c.clusters[0].cell_count + c.clusters[1].cell_count,
            c.busy_cells.size());
}

TEST_F(StudyTest, ReportPrintsEverySection) {
  std::ostringstream out;
  print_report(out, report());
  const std::string s = out.str();
  for (const char* needle :
       {"Daily presence", "Table 1", "Connected time", "Days on network",
        "busy cells", "Table 2", "Per-cell connection durations",
        "Handovers", "Table 3", "Concurrency clusters"}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
}

TEST_F(StudyTest, OptionsArePluggable) {
  // A tighter truncation cap must reduce the truncated mean.
  StudyOptions options;
  options.truncation_cap = 120;
  const auto load = CellLoad::from_background(study().background);
  const StudyReport tight =
      run_study(study().raw, study().topology.cells(), load, options);
  EXPECT_LT(tight.cell_sessions.mean_truncated,
            report().cell_sessions.mean_truncated);
  EXPECT_EQ(tight.cell_sessions.cap, 120);
}

TEST_F(StudyTest, RequiresFinalizedDataset) {
  // The fold reads records in finalize() order and takes the study
  // geometry from the dataset, so an unfinalized one is refused.
  const auto load = CellLoad::from_background(study().background);
  cdr::Dataset raw;
  raw.add(cdr::Connection{CarId{1}, CellId{0}, 100, 60});
  raw.add(cdr::Connection{CarId{0}, CellId{0}, 50, 60});
  EXPECT_THROW((void)run_study(raw, study().topology.cells(), load),
               std::invalid_argument);

  raw.finalize();
  EXPECT_NO_THROW((void)run_study(raw, study().topology.cells(), load));

  raw.add(cdr::Connection{CarId{2}, CellId{0}, 10, 60});  // unfinalizes
  EXPECT_THROW((void)run_study(raw, study().topology.cells(), load),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccms::core
