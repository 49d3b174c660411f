#include "net/load.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/load_view.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace ccms::net {
namespace {

class LoadTest : public ::testing::Test {
 protected:
  LoadTest() : topo_(test::small_topology()) {
    util::Rng rng(99);
    load_ = background_load(topo_, LoadModelConfig{}, rng);
  }
  Topology topo_;
  CellLoad load_;
};

TEST_F(LoadTest, ProfilesCoverAllCells) {
  EXPECT_EQ(load_.cell_count(), topo_.cells().size());
  for (const CellInfo& cell : topo_.cells().all()) {
    EXPECT_EQ(load_.profile(cell.id).size(),
              static_cast<std::size_t>(time::kBins15PerWeek));
  }
}

TEST_F(LoadTest, UtilizationInUnitRange) {
  for (const CellInfo& cell : topo_.cells().all()) {
    for (int bin = 0; bin < time::kBins15PerWeek; bin += 13) {
      const double u = load_.at(cell.id, bin);
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
}

TEST_F(LoadTest, NightIsQuieterThanEvening) {
  // Averaged over all cells, 03:00 load must be well below 19:00 load.
  double night = 0, evening = 0;
  for (const CellInfo& cell : topo_.cells().all()) {
    night += load_.at_time(cell.id, time::at(2, 3));
    evening += load_.at_time(cell.id, time::at(2, 19));
  }
  EXPECT_LT(night, 0.55 * evening);
}

TEST_F(LoadTest, DowntownHotterThanRural) {
  double downtown = 0, rural = 0;
  std::size_t nd = 0, nr = 0;
  for (const CellInfo& cell : topo_.cells().all()) {
    const double m = load_.weekly_mean(cell.id);
    if (cell.geo == GeoClass::kDowntown) {
      downtown += m;
      ++nd;
    } else if (cell.geo == GeoClass::kRural) {
      rural += m;
      ++nr;
    }
  }
  ASSERT_GT(nd, 0u);
  ASSERT_GT(nr, 0u);
  EXPECT_GT(downtown / nd, 2.0 * (rural / nr));
}

TEST_F(LoadTest, SomeBusyCellsExist) {
  // The busy-radio analyses (Table 2, Figs 7/11) need cells crossing 80%.
  int busy_bins = 0;
  for (const CellInfo& cell : topo_.cells().all()) {
    for (int bin = 0; bin < time::kBins15PerWeek; ++bin) {
      busy_bins += load_.at(cell.id, bin) > 0.8;
    }
  }
  EXPECT_GT(busy_bins, 0);
}

TEST_F(LoadTest, MostCellsAreNotBusy) {
  int busy_cells = 0;
  for (const CellInfo& cell : topo_.cells().all()) {
    busy_cells += load_.weekly_mean(cell.id) >= 0.7;
  }
  EXPECT_LT(busy_cells, static_cast<int>(topo_.cells().size() / 4));
}

TEST_F(LoadTest, WeeklyMeanMatchesProfile) {
  const CellId cell = topo_.cells().all().front().id;
  const auto profile = load_.profile(cell);
  double sum = 0;
  for (const float v : profile) sum += v;
  EXPECT_NEAR(load_.weekly_mean(cell), sum / profile.size(), 1e-9);
}

TEST_F(LoadTest, DeterministicGivenSeed) {
  util::Rng rng(99);
  const CellLoad again = background_load(topo_, LoadModelConfig{}, rng);
  for (const CellInfo& cell : topo_.cells().all()) {
    EXPECT_EQ(load_.at(cell.id, 300), again.at(cell.id, 300));
  }
}

TEST(CellLoadShapeTest, RejectsGridsThatAreNotWholeWeeks) {
  std::vector<std::vector<float>> rows(
      2, std::vector<float>(time::kBins15PerWeek, 0.5f));
  rows[1].resize(time::kBins15PerDay);
  EXPECT_THROW((void)CellLoad::from_profiles(std::move(rows)),
               std::invalid_argument);
  EXPECT_THROW(CellLoad(std::vector<float>(time::kBins15PerWeek + 1, 0.5f)),
               std::invalid_argument);
  EXPECT_EQ(CellLoad(std::vector<float>(2 * time::kBins15PerWeek)).cell_count(),
            2u);
  EXPECT_EQ(CellLoad(std::vector<float>{}).cell_count(), 0u);
}

TEST(CellLoadShareTest, CopiesShareTheStudyBackground) {
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 20;
  config.study_days = 7;
  const sim::Study study = sim::simulate(config);
  const CellLoad shared = core::CellLoad::from_background(study.background);
  const CellLoad copy = study.background;
  ASSERT_GT(study.background.cell_count(), 0u);
  for (std::uint32_t c = 0; c < study.background.cell_count(); ++c) {
    const float* original = study.background.profile(CellId{c}).data();
    EXPECT_EQ(shared.profile(CellId{c}).data(), original);
    EXPECT_EQ(copy.profile(CellId{c}).data(), original);
  }
}

TEST(DiurnalTest, MultiplierPeaksInNetworkPeakHours) {
  // Fig 4: network peak is 14-24; every class must peak inside it.
  for (int g = 0; g < kGeoClassCount; ++g) {
    const auto geo = static_cast<GeoClass>(g);
    double best = -1;
    int best_hour = -1;
    for (int h = 0; h < 24; ++h) {
      const double m = diurnal_multiplier(geo, h, time::Weekday::kTuesday);
      if (m > best) {
        best = m;
        best_hour = h;
      }
    }
    EXPECT_GE(best_hour, 7) << name(geo);  // morning commute at earliest
    EXPECT_LE(best_hour, 23) << name(geo);
  }
}

TEST(DiurnalTest, HighwayHasMorningCommuteBump) {
  const double h7 = diurnal_multiplier(GeoClass::kHighway, 7,
                                       time::Weekday::kWednesday);
  const double h11 = diurnal_multiplier(GeoClass::kHighway, 11,
                                        time::Weekday::kWednesday);
  EXPECT_GT(h7, h11);
}

TEST(DiurnalTest, WeekendDiffersFromWeekday) {
  const double wd = diurnal_multiplier(GeoClass::kDowntown, 12,
                                       time::Weekday::kTuesday);
  const double we = diurnal_multiplier(GeoClass::kDowntown, 12,
                                       time::Weekday::kSaturday);
  EXPECT_NE(wd, we);
  EXPECT_LT(we, wd);  // downtown offices empty out on weekends
}

TEST(LoadCoreTest, SaturatedCoreIsAlwaysBusy) {
  // Stations inside core_radius must exceed the busy threshold in (nearly)
  // every bin: that is what produces Fig 7's "all their time" cars.
  net::TopologyConfig tc;
  tc.grid_width = 16;
  tc.grid_height = 16;
  util::Rng trng(5);
  const Topology topo(tc, trng);
  LoadModelConfig config;
  config.core_radius = 0.10;
  util::Rng lrng(6);
  const CellLoad load = background_load(topo, config, lrng);

  const StationId centre = topo.station_at({8, 8});
  int busy = 0;
  int total = 0;
  for (const CellId cell_id : topo.cells().cells_of(centre)) {
    // Waking-hour bins only (06:00-23:00).
    for (int day = 0; day < 7; ++day) {
      for (int bin = 24; bin < 92; ++bin) {
        ++total;
        busy += load.at(cell_id, day * 96 + bin) > 0.8;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(busy) / total, 0.95);
}

}  // namespace
}  // namespace ccms::net
