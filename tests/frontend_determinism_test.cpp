// Golden determinism of the parallel front of pipeline: fleet generation,
// trace simulation, chunked ingest and Dataset::finalize must produce
// bitwise-identical output at every thread width (1, 2, 8). The comparisons
// use write_csv_text — byte equality of the serialized dataset — plus
// exact IngestReport equality, so any divergence in record order, content or
// accounting fails the test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdr/io.h"
#include "exec/thread_pool.h"
#include "fleet/fleet_builder.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms {
namespace {

void expect_car_equal(const fleet::CarProfile& a, const fleet::CarProfile& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.archetype, b.archetype);
  EXPECT_EQ(a.home, b.home);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.depart_am, b.depart_am);
  EXPECT_EQ(a.depart_pm, b.depart_pm);
  EXPECT_EQ(a.activity_scale, b.activity_scale);
  EXPECT_EQ(a.stuck_multiplier, b.stuck_multiplier);
  EXPECT_EQ(a.carrier_support, b.carrier_support);
  EXPECT_EQ(a.preferred_carrier, b.preferred_carrier);
  EXPECT_EQ(a.tz_offset_hours, b.tz_offset_hours);
}

TEST(FrontendDeterminismTest, FleetBuilderIdenticalAcrossWidths) {
  const net::Topology topology = test::small_topology();
  fleet::FleetConfig config;
  config.size = 500;

  util::Rng seq_rng(321);
  const auto golden = fleet::build_fleet(topology, config, seq_rng);
  for (const int width : {1, 2, 8}) {
    exec::ThreadPool pool(width);
    util::Rng rng(321);
    const auto fleet = fleet::build_fleet(topology, config, rng, pool);
    ASSERT_EQ(fleet.size(), golden.size()) << "width=" << width;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      expect_car_equal(fleet[i], golden[i]);
    }
  }
}

TEST(FrontendDeterminismTest, SimulatedTraceIdenticalAcrossWidths) {
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 120;
  config.study_days = 14;

  config.threads = 1;
  const std::string golden =
      cdr::write_csv_text(sim::simulate(config).raw);
  for (const int width : {2, 8}) {
    config.threads = width;
    const std::string bytes =
        cdr::write_csv_text(sim::simulate(config).raw);
    EXPECT_EQ(bytes, golden) << "width=" << width;
  }
}

TEST(FrontendDeterminismTest, FinalizePoolMatchesSequential) {
  // A deterministically shuffled trace so finalize() does real sorting.
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 80;
  config.study_days = 7;
  const sim::Study study = sim::simulate(config);
  std::vector<cdr::Connection> shuffled(study.raw.all().begin(),
                                        study.raw.all().end());
  util::Rng rng(7);
  rng.shuffle(shuffled);

  cdr::Dataset golden;
  golden.add(shuffled);
  golden.finalize();
  const std::string golden_bytes = cdr::write_csv_text(golden);

  for (const int width : {1, 2, 8}) {
    exec::ThreadPool pool(width);
    cdr::Dataset dataset;
    dataset.add(shuffled);
    dataset.finalize(pool);
    EXPECT_EQ(cdr::write_csv_text(dataset), golden_bytes)
        << "width=" << width;
    EXPECT_EQ(dataset.distinct_cells(), golden.distinct_cells())
        << "width=" << width;
  }
}

TEST(FrontendDeterminismTest, CsvIngestIdenticalAcrossWidths) {
  sim::SimConfig config = sim::SimConfig::quick();
  config.fleet.size = 60;
  config.study_days = 7;
  const std::string text =
      cdr::write_csv_text(sim::simulate(config).raw);

  cdr::IngestOptions options;
  options.mode = cdr::ParseMode::kLenient;
  options.chunk_bytes = 256;  // force many chunk seams on the small fixture
  options.threads = 1;
  cdr::IngestReport golden_report;
  const std::string golden_bytes = cdr::write_csv_text(
      cdr::read_csv_text(text, options, golden_report, "unit"));

  for (const int width : {2, 8}) {
    options.threads = width;
    cdr::IngestReport report;
    const cdr::Dataset loaded =
        cdr::read_csv_text(text, options, report, "unit");
    EXPECT_EQ(cdr::write_csv_text(loaded), golden_bytes)
        << "width=" << width;
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

}  // namespace
}  // namespace ccms
