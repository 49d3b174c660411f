// The executor's contract: run_study produces the exact same StudyReport —
// every double bitwise identical — for any thread count. Chunk boundaries
// and merge order depend only on the data, never on the pool size, so this
// holds with == comparisons, not tolerances.
#include "core/study.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fleet/archetype.h"
#include "fleet/car.h"
#include "sim/simulator.h"

namespace ccms::core {
namespace {

void expect_thread_invariant(const sim::Study& study) {
  const auto load = CellLoad::from_background(study.background);
  StudyOptions options;
  options.threads = 1;
  const StudyReport base =
      run_study(study.raw, study.topology.cells(), load, options);
  for (const int threads : {2, 8}) {
    options.threads = threads;
    const StudyReport r =
        run_study(study.raw, study.topology.cells(), load, options);
    std::string why;
    EXPECT_TRUE(study_reports_identical(base, r, &why))
        << "threads=" << threads << ": " << why;
  }
}

TEST(DeterminismTest, QuickStudyIdenticalAcrossThreadCounts) {
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 300;
  config.study_days = 21;
  expect_thread_invariant(sim::simulate(config));
}

TEST(DeterminismTest, LargeFleetIdenticalAcrossThreadCounts) {
  // 10k cars over a week: enough spans that every chunk size and thread
  // count exercises real merge chains.
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 10'000;
  config.study_days = 7;
  expect_thread_invariant(sim::simulate(config));
}

TEST(DeterminismTest, PerArchetypeSlicesIdenticalAcrossThreadCounts) {
  // Each driving archetype stresses a different span shape (dense commuter
  // traces, sparse rare drivers); every slice must be thread-invariant.
  const sim::Study study = sim::simulate(sim::SimConfig::quick());
  for (const fleet::Archetype archetype :
       {fleet::Archetype::kRegularCommuter, fleet::Archetype::kHeavyUser,
        fleet::Archetype::kRareDriver}) {
    std::set<std::uint32_t> members;
    for (const fleet::CarProfile& car : study.fleet) {
      if (car.archetype == archetype) members.insert(car.id.value);
    }
    ASSERT_FALSE(members.empty()) << static_cast<int>(archetype);

    sim::Study slice = study;
    cdr::Dataset sub;
    sub.set_fleet_size(study.raw.fleet_size());
    sub.set_study_days(study.raw.study_days());
    for (const cdr::Connection& c : study.raw.all()) {
      if (members.count(c.car.value)) sub.add(c);
    }
    sub.finalize();
    slice.raw = std::move(sub);

    SCOPED_TRACE(testing::Message()
                 << "archetype=" << static_cast<int>(archetype)
                 << " cars=" << members.size());
    expect_thread_invariant(slice);
  }
}

TEST(DeterminismTest, HardwareWidthMatchesSequential) {
  // threads = 0 resolves to hardware_concurrency; still identical.
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 200;
  config.study_days = 14;
  const sim::Study study = sim::simulate(config);
  const auto load = CellLoad::from_background(study.background);
  StudyOptions sequential;
  sequential.threads = 1;
  StudyOptions hardware;
  hardware.threads = 0;
  std::string why;
  EXPECT_TRUE(study_reports_identical(
      run_study(study.raw, study.topology.cells(), load, sequential),
      run_study(study.raw, study.topology.cells(), load, hardware), &why))
      << why;
}

}  // namespace
}  // namespace ccms::core
