#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "util/time.h"

namespace ccms::sim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  static const Study& study() {
    static const Study s = simulate(SimConfig::quick());
    return s;
  }
};

TEST_F(SimulatorTest, ProducesRecords) {
  EXPECT_GT(study().raw.size(), 1000u);
  EXPECT_EQ(study().fleet.size(), 300u);
  EXPECT_EQ(study().raw.fleet_size(), 300u);
  EXPECT_EQ(study().raw.study_days(), 28);
}

TEST_F(SimulatorTest, RecordsWithinStudyWindow) {
  const time::Seconds end = 28 * time::kSecondsPerDay;
  for (const cdr::Connection& c : study().raw.all()) {
    EXPECT_GE(c.start, 0);
    EXPECT_LT(c.start, end);
    EXPECT_LE(c.end(), end);
    EXPECT_GT(c.duration_s, 0);
  }
}

TEST_F(SimulatorTest, CellsAreValid) {
  const auto n_cells = study().topology.cells().size();
  for (const cdr::Connection& c : study().raw.all()) {
    EXPECT_LT(c.cell.value, n_cells);
  }
}

TEST_F(SimulatorTest, ContainsHourArtifacts) {
  // The raw dataset must include the S3 reporting artifacts for the
  // cleaning stage to remove.
  int artifacts = 0;
  for (const cdr::Connection& c : study().raw.all()) {
    artifacts += c.duration_s == 3600;
  }
  EXPECT_GT(artifacts, 0);
}

TEST_F(SimulatorTest, MostCarsAppear) {
  std::vector<char> seen(study().fleet.size(), 0);
  for (const cdr::Connection& c : study().raw.all()) {
    seen[c.car.value] = 1;
  }
  int appearing = 0;
  for (const char s : seen) appearing += s;
  EXPECT_GT(appearing, static_cast<int>(study().fleet.size() * 9 / 10));
}

TEST_F(SimulatorTest, DataLossDaysThinned) {
  SimConfig config = SimConfig::quick();
  config.data_loss_days = {10};
  config.data_loss_fraction = 0.5;
  const Study lossy = simulate(config);

  SimConfig config_clean = SimConfig::quick();
  config_clean.data_loss_days = {};
  const Study full = simulate(config_clean);

  auto records_on_day = [](const Study& s, int day) {
    std::size_t n = 0;
    for (const cdr::Connection& c : s.raw.all()) {
      n += time::day_index(c.start) == day;
    }
    return n;
  };
  const double kept = static_cast<double>(records_on_day(lossy, 10)) /
                      static_cast<double>(records_on_day(full, 10));
  EXPECT_NEAR(kept, 0.5, 0.07);
  // A neighbouring day is untouched.
  EXPECT_EQ(records_on_day(lossy, 11), records_on_day(full, 11));
}

TEST_F(SimulatorTest, DayFactorsCarryTrend) {
  SimConfig config = SimConfig::quick();
  config.study_days = 70;
  config.daily_trend = 0.01;
  config.dow_noise_sigma = {};  // no noise
  const Study s = simulate(config);
  ASSERT_EQ(s.day_factors.size(), 70u);
  EXPECT_NEAR(s.day_factors[0], 1.0, 1e-9);
  EXPECT_NEAR(s.day_factors[69], 1.69, 1e-9);
}

TEST_F(SimulatorTest, DeterministicGivenSeed) {
  const Study a = simulate(SimConfig::quick());
  const Study b = simulate(SimConfig::quick());
  ASSERT_EQ(a.raw.size(), b.raw.size());
  for (std::size_t i = 0; i < a.raw.size(); i += 997) {
    EXPECT_EQ(a.raw.all()[i], b.raw.all()[i]);
  }
}

TEST_F(SimulatorTest, DifferentSeedsDiffer) {
  SimConfig other = SimConfig::quick();
  other.seed = 12345;
  const Study b = simulate(other);
  EXPECT_NE(study().raw.size(), b.raw.size());
}

TEST_F(SimulatorTest, MoreCarsOnWeekdaysThanSundays) {
  // Table 1: ~79% of cars appear on weekdays vs ~67% on Sundays. Count
  // distinct (car, day) presences per weekday.
  std::array<std::set<std::pair<std::uint32_t, std::int64_t>>, 7> by_dow;
  for (const cdr::Connection& c : study().raw.all()) {
    by_dow[static_cast<std::size_t>(time::weekday(c.start))].insert(
        {c.car.value, time::day_index(c.start)});
  }
  // 28 days = 4 of each weekday; compare Tuesday vs Sunday directly.
  EXPECT_GT(by_dow[1].size(), by_dow[6].size());
}

TEST_F(SimulatorTest, PaperDefaultIsLarger) {
  const SimConfig config = SimConfig::paper_default();
  EXPECT_EQ(config.study_days, 90);
  EXPECT_GE(config.fleet.size, 4000);
  EXPECT_GE(config.topology.grid_width * config.topology.grid_height, 1000);
}

/// FNV-1a over 64-bit little-endian words.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

TEST(SimulateDigest, RecordsOffsetsAndGeometryArePinned) {
  // simulate() hands each car's records to finalize() already sorted; the
  // finalized Dataset must stay the one the full sort produced. The digest
  // covers every record, every car's offset and count, the fleet size and
  // the study days; it was taken when finalize() still sorted the trace.
  constexpr std::uint64_t kPinned = 0x6bf4af8110a060ccULL;
  for (const int width : {1, 4}) {
    SimConfig config = SimConfig::quick();
    config.fleet.size = 300;
    config.study_days = 14;
    config.threads = width;
    const Study study = simulate(config);
    const cdr::Dataset& raw = study.raw;
    Fnv64 digest;
    for (const cdr::Connection& c : raw.all()) {
      digest.add(c.car.value);
      digest.add(c.cell.value);
      digest.add(static_cast<std::uint64_t>(c.start));
      digest.add(static_cast<std::uint64_t>(std::int64_t{c.duration_s}));
    }
    for (std::uint32_t k = 0; k < raw.fleet_size(); ++k) {
      const std::span<const cdr::Connection> records = raw.of_car(CarId{k});
      digest.add(records.empty() ? 0
                                 : static_cast<std::uint64_t>(
                                       records.data() - raw.all().data()));
      digest.add(records.size());
    }
    digest.add(raw.fleet_size());
    digest.add(static_cast<std::uint64_t>(raw.study_days()));
    EXPECT_EQ(raw.size(), 74801u) << "width " << width;
    EXPECT_EQ(digest.h, kPinned) << "width " << width;
  }
}

TEST(SimulateDigest, EmittedTraceAlreadyAscends) {
  // What lets finalize() skip its sort: cars come out in id order, each
  // one sorted.
  SimConfig config = SimConfig::quick();
  config.study_days = 14;
  const StreamSim sim(config);
  std::vector<cdr::Connection> scratch;
  std::vector<cdr::Connection> trace;
  for (std::size_t i = 0; i < sim.fleet().size(); ++i) {
    sim.emit_car(i, scratch, trace);
  }
  ASSERT_GT(trace.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                             cdr::ByCarThenStart{}));
}

}  // namespace
}  // namespace ccms::sim
