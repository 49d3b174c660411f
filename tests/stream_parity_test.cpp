// Batch <-> stream parity: one streaming pass over the simulated feed must
// reproduce run_study's presence, connected-time and session-duration
// numbers — exactly for everything computed from counters and exact
// distributions, and within 1% for the P^2 median estimate — independent of
// the shard count, and in the presence of injected out-of-order delivery.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "cdr/clean.h"
#include "cdr/dataset.h"
#include "cdr/session.h"
#include "core/cell_sessions.h"
#include "core/connected_time.h"
#include "core/days_histogram.h"
#include "core/presence.h"
#include "core/study.h"
#include "core/usage_matrix.h"
#include "faults/fault_injector.h"
#include "fleet/archetype.h"
#include "fleet/car.h"
#include "sim/simulator.h"
#include "stream/engine.h"
#include "stream/feed.h"
#include "stream/report.h"

namespace ccms::stream {
namespace {

struct BatchBaseline {
  core::StudyReport report;
  core::Matrix24x7 usage;
  std::uint64_t sessions = 0;
  double session_span_sum = 0;
};

// The batch-side figures the stream engine claims parity with, computed by
// the same analyzers run_study uses (clustering and the other heavy stages
// are irrelevant to the parity contract and skipped for test speed).
BatchBaseline batch_study(const cdr::Dataset& raw,
                          const cdr::CleanOptions& clean = {}) {
  BatchBaseline batch;
  const cdr::Dataset cleaned = cdr::clean(raw, clean, batch.report.clean);
  batch.report.presence = core::analyze_presence(cleaned);
  batch.report.connected_time = core::analyze_connected_time(cleaned, 600);
  batch.report.days = core::analyze_days_on_network(cleaned);
  batch.report.cell_sessions = core::analyze_cell_sessions(cleaned, 600);
  batch.usage = core::usage_matrix(cleaned.all());
  cleaned.for_each_car([&](CarId, std::span<const cdr::Connection> records) {
    for (const cdr::Session& s : cdr::aggregate_sessions(records)) {
      ++batch.sessions;
      batch.session_span_sum += static_cast<double>(s.span.duration());
    }
  });
  return batch;
}

void expect_parity(const cdr::Dataset& raw, const BatchBaseline& batch,
                   int shards, double p2_tolerance = 0.01,
                   const cdr::CleanOptions& clean = {}) {
  StreamConfig config = config_for(raw, shards);
  config.clean = clean;
  ShardedEngine engine(config);
  replay(raw, engine);
  const StreamReport stream = engine.snapshot();

  SCOPED_TRACE(testing::Message() << "shards=" << shards);
  EXPECT_EQ(stream.clean, batch.report.clean);
  EXPECT_EQ(engine.late_records(), 0u);

  const ParityReport parity =
      parity_against(stream, batch.report, &batch.usage);
  EXPECT_TRUE(parity.pass(p2_tolerance))
      << "presence cars " << parity.presence_cars_max_delta << " cells "
      << parity.presence_cells_max_delta << " conn mean "
      << parity.connected_mean_full_delta << " p995 "
      << parity.connected_p995_full_delta << " duration median "
      << parity.duration_median_delta << " cdf@cap "
      << parity.duration_cdf_at_cap_delta << " usage "
      << parity.usage_max_delta << " p2 rel "
      << parity.p2_median_rel_error;

  // Sessionization parity: same closed-session count and exact span totals
  // (integer-valued double sums are exact, so merge order cannot drift).
  EXPECT_EQ(stream.sessions_closed, batch.sessions);
  EXPECT_EQ(stream.sessions_open, 0u);
  EXPECT_DOUBLE_EQ(stream.session_span.sum(), batch.session_span_sum);
  EXPECT_EQ(stream.session_span.count(), batch.sessions);
}

TEST(StreamParityTest, ArchetypeParityAcrossShards) {
  const sim::Study study = sim::simulate(sim::SimConfig::quick());
  const cdr::Dataset& dataset = study.raw;

  for (const fleet::Archetype archetype :
       {fleet::Archetype::kRegularCommuter, fleet::Archetype::kFlexCommuter,
        fleet::Archetype::kWeekendDriver, fleet::Archetype::kHeavyUser,
        fleet::Archetype::kRareDriver}) {
    std::set<std::uint32_t> members;
    for (const fleet::CarProfile& car : study.fleet) {
      if (car.archetype == archetype) members.insert(car.id.value);
    }
    ASSERT_FALSE(members.empty())
        << "archetype " << static_cast<int>(archetype);

    // Keep the full-fleet size and horizon so every denominator matches.
    cdr::Dataset sub;
    sub.set_fleet_size(dataset.fleet_size());
    sub.set_study_days(dataset.study_days());
    for (const cdr::Connection& c : dataset.all()) {
      if (members.count(c.car.value)) sub.add(c);
    }
    sub.finalize();

    SCOPED_TRACE(testing::Message()
                 << "archetype=" << static_cast<int>(archetype)
                 << " cars=" << members.size());
    // The exact figures must agree bitwise at any fleet slice; the P^2
    // median is an approximation whose convergence needs sample size, so
    // the tight 1% bound is asserted on the 10k-car dataset below and the
    // small per-archetype slices (down to ~30 rare drivers) get 5%.
    const BatchBaseline batch = batch_study(sub);
    for (const int shards : {1, 4, 8}) {
      expect_parity(sub, batch, shards, /*p2_tolerance=*/0.05);
    }
  }
}

TEST(StreamParityTest, TenThousandCarParity) {
  sim::SimConfig config = sim::SimConfig::paper_default();
  config.fleet.size = 10000;
  config.study_days = 7;
  const cdr::Dataset dataset = sim::simulate(config).raw;
  ASSERT_EQ(dataset.fleet_size(), 10000u);
  ASSERT_GT(dataset.size(), 100000u);

  const BatchBaseline batch = batch_study(dataset);
  for (const int shards : {1, 4, 8}) expect_parity(dataset, batch, shards);
}

TEST(StreamParityTest, NonDefaultCleanOptionsParity) {
  // The artifact rule off and a 1,000 s plausibility bound: the stream's
  // inline screen must remove exactly what cdr::clean removes under the
  // same options, and the figures must still agree with the batch study.
  cdr::CleanOptions clean;
  clean.artifact_duration_s = 0;
  clean.max_plausible_duration_s = 1000;
  const cdr::Dataset dataset = sim::simulate(sim::SimConfig::quick()).raw;

  const BatchBaseline batch = batch_study(dataset, clean);
  ASSERT_EQ(batch.report.clean.hour_artifacts_removed, 0u);
  ASSERT_GT(batch.report.clean.implausible_removed, 0u);
  for (const int shards : {1, 4}) {
    expect_parity(dataset, batch, shards, /*p2_tolerance=*/0.05, clean);
  }
}

TEST(StreamParityTest, OutOfOrderDeliveryParity) {
  // A jittered arrival order with provably-late records: the engine must
  // quarantine exactly the injected late set and match the batch study over
  // the remaining records.
  sim::SimConfig config = sim::SimConfig::pristine();
  const cdr::Dataset raw = sim::simulate(config).raw;
  // Pre-clean so the §3 screen never interacts with the injected lateness
  // (a late record must be quarantined, not removed as an artifact first).
  cdr::CleanReport pre_clean;
  const cdr::Dataset cleaned = cdr::clean(raw, {}, pre_clean);

  const std::vector<cdr::Connection> feed = arrival_order(cleaned);
  faults::FaultInjector injector(77);
  faults::FaultInjector::FeedJitter jitter;
  jitter.max_delay = 300;
  jitter.late_rate = 0.01;
  jitter.allowed_lateness = 300;
  const auto jittered = injector.jitter_feed(feed, jitter);
  ASSERT_GT(jittered.late.size(), 20u);
  ASSERT_EQ(jittered.arrivals.size(), feed.size());

  StreamConfig stream_config = config_for(cleaned, 4);
  stream_config.allowed_lateness = jitter.allowed_lateness;
  ShardedEngine engine(stream_config);
  engine.push(std::span<const cdr::Connection>(jittered.arrivals));
  engine.finish();

  // Every injected-late record quarantined, nothing else.
  EXPECT_EQ(engine.late_records(), jittered.late.size());
  const StreamReport stream = engine.snapshot();
  EXPECT_EQ(stream.ingest.count(cdr::FaultClass::kOutOfOrderRecord),
            jittered.late.size());
  EXPECT_EQ(stream.ingest.records_accepted + jittered.late.size(),
            feed.size());

  // Batch baseline over the feed minus the quarantined records.
  std::multiset<cdr::Connection, cdr::ByCarThenStart> survivors(
      feed.begin(), feed.end());
  for (const cdr::Connection& lost : jittered.late) {
    const auto it = survivors.find(lost);
    ASSERT_NE(it, survivors.end());
    survivors.erase(it);
  }
  cdr::Dataset base;
  base.set_fleet_size(cleaned.fleet_size());
  base.set_study_days(cleaned.study_days());
  for (const cdr::Connection& c : survivors) base.add(c);
  base.finalize();

  const BatchBaseline batch = batch_study(base);
  const ParityReport parity =
      parity_against(stream, batch.report, &batch.usage);
  EXPECT_TRUE(parity.pass())
      << "presence cars " << parity.presence_cars_max_delta << " conn mean "
      << parity.connected_mean_full_delta << " duration median "
      << parity.duration_median_delta << " usage " << parity.usage_max_delta
      << " p2 rel " << parity.p2_median_rel_error;
  EXPECT_EQ(stream.sessions_closed + stream.sessions_open, batch.sessions);
  EXPECT_EQ(stream.sessions_open, 0u);
  EXPECT_DOUBLE_EQ(stream.session_span.sum(), batch.session_span_sum);
}

}  // namespace
}  // namespace ccms::stream
