// DistEngine end to end, with real forked worker processes: bitwise report
// parity against the in-process ShardedEngine across worker counts, kill and
// hang recovery that leaves the final report identical to an uninterrupted
// run, graceful degradation (lost shard + conservation) when the restart
// budget is exhausted, and checkpoint interchange with ShardedEngine.
#include "dist/supervisor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/report.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::dist {
namespace {

using test::conn;

/// A deterministic feed with every producer path exercised: clean-screen
/// drops (hour artifacts, nonpositive and implausible durations) and
/// watermark-quarantined stragglers.
std::vector<cdr::Connection> feed(int records, std::uint64_t seed) {
  std::vector<cdr::Connection> out;
  out.reserve(static_cast<std::size_t>(records));
  util::Rng rng(seed);
  time::Seconds t = 1000;
  for (int i = 0; i < records; ++i) {
    t += rng.uniform_int(1, 40);
    const auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 23));
    const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
    const double dice = rng.uniform();
    if (dice < 0.02) duration = 3600;
    else if (dice < 0.04) duration = 0;
    else if (dice < 0.05) duration = 500000;
    time::Seconds start = t;
    if (dice > 0.97 && t > 2000) start = t - 1500;  // past the watermark
    out.push_back(conn(car, cell, start, duration));
  }
  return out;
}

stream::StreamConfig engine_config(int shards) {
  stream::StreamConfig config;
  config.shards = shards;
  config.allowed_lateness = 300;
  config.fleet_size = 24;
  config.study_days = 7;
  config.batch_records = 16;
  config.queue_batches = 4;
  config.exactly_once = true;
  return config;
}

DistConfig dist_config(int shards) {
  DistConfig config;
  config.stream = engine_config(shards);
  config.checkpoint_every = 64;
  return config;
}

/// The in-process reference report over the same feed.
stream::StreamReport reference_report(const stream::StreamConfig& config,
                                      const std::vector<cdr::Connection>& r) {
  stream::ShardedEngine engine(config);
  engine.push(r);
  engine.finish();
  return engine.snapshot();
}

TEST(DistEngine, ReportsBitwiseIdenticalToInProcessEngine) {
  const auto records = feed(900, 0xD157u);
  for (const int workers : {1, 2, 4}) {
    const auto reference = reference_report(engine_config(workers), records);

    DistEngine dist(dist_config(workers));
    dist.push(records);
    dist.finish();
    const auto report = dist.snapshot();

    std::string why;
    EXPECT_TRUE(stream::reports_identical(report, reference, &why))
        << "workers=" << workers << ": " << why;
    EXPECT_EQ(dist.restarts_total(), 0);
    EXPECT_EQ(dist.workers_lost(), 0);
    EXPECT_EQ(dist.wire_report().records_dropped, 0u);
  }
}

TEST(DistEngine, MidRunSnapshotMatchesInProcessEngine) {
  const auto records = feed(700, 0x51A9u);
  const std::size_t half = records.size() / 2;

  stream::ShardedEngine sharded(engine_config(2));
  DistEngine dist(dist_config(2));
  for (std::size_t i = 0; i < half; ++i) {
    sharded.push(records[i]);
    dist.push(records[i]);
  }
  std::string why;
  EXPECT_TRUE(
      stream::reports_identical(dist.snapshot(), sharded.snapshot(), &why))
      << why;

  // The mid-run snapshot did not disturb either engine: finish both and the
  // final reports still agree (and match the reference).
  for (std::size_t i = half; i < records.size(); ++i) {
    sharded.push(records[i]);
    dist.push(records[i]);
  }
  sharded.finish();
  dist.finish();
  EXPECT_TRUE(
      stream::reports_identical(dist.snapshot(), sharded.snapshot(), &why))
      << why;
}

TEST(DistEngine, KilledWorkerRecoversToIdenticalReport) {
  const auto records = feed(900, 0x6144u);
  const auto reference = reference_report(engine_config(2), records);

  auto config = dist_config(2);
  // Worker 1 crashes the instant it has applied 150 records; the first
  // respawn runs clean. By-count injection makes the failure point
  // identical across runs and sanitizers.
  config.faults[1] = WorkerFault{.crash_after = 150, .generations = 1};
  DistEngine dist(config);
  dist.push(records);
  dist.finish();

  EXPECT_GE(dist.restarts_total(), 1);
  EXPECT_EQ(dist.workers_lost(), 0);
  EXPECT_GT(dist.gap_replayed_records(), 0u);
  std::string why;
  EXPECT_TRUE(stream::reports_identical(dist.snapshot(), reference, &why))
      << why;
}

TEST(DistEngine, HungWorkerIsKilledAndRecoversToIdenticalReport) {
  const auto records = feed(600, 0xDEADu);
  const auto reference = reference_report(engine_config(2), records);

  auto config = dist_config(2);
  config.heartbeat_ms = 10;
  config.heartbeat_timeout_ms = 300;  // fast hang detection for the test
  config.faults[0] = WorkerFault{.hang_after = 100, .generations = 1};
  DistEngine dist(config);
  dist.push(records);
  dist.finish();

  EXPECT_GE(dist.restarts_total(), 1);
  EXPECT_EQ(dist.workers_lost(), 0);
  std::string why;
  EXPECT_TRUE(stream::reports_identical(dist.snapshot(), reference, &why))
      << why;
}

TEST(DistEngine, RestartStormExhaustsBudgetAndDegradesGracefully) {
  const auto records = feed(900, 0x5702Du);

  auto config = dist_config(2);
  config.max_restarts = 2;
  // Worker 1 crashes after 80 applied records in *every* generation: the
  // initial process plus both restarts die, the circuit breaker opens and
  // the shard is declared lost.
  config.faults[1] = WorkerFault{.crash_after = 80, .generations = 1000};
  DistEngine dist(config);
  dist.push(records);
  dist.finish();

  EXPECT_EQ(dist.restarts_total(), 2);
  EXPECT_EQ(dist.workers_lost(), 1);

  const auto report = dist.snapshot();
  ASSERT_EQ(report.degraded_shards.size(), 1u);
  EXPECT_EQ(report.degraded_shards[0].shard, 1);
  EXPECT_GT(report.degraded_shards[0].records_lost, 0u);
  EXPECT_NE(report.degraded_shards[0].reason.find("restart budget"),
            std::string::npos)
      << report.degraded_shards[0].reason;
  EXPECT_LT(report.coverage_fraction, 1.0);
  EXPECT_GT(report.coverage_fraction, 0.0);

  // Conservation closes across process death:
  //   routed == integrated + pending + lost.
  std::uint64_t lost = 0;
  for (const auto& d : report.degraded_shards) lost += d.records_lost;
  EXPECT_EQ(report.engine.records_routed,
            report.engine.records_integrated + report.engine.reorder_pending +
                lost);

  // A lossy engine is not a resume point.
  EXPECT_THROW((void)dist.checkpoint(), stream::StreamStateError);
}

TEST(DistEngine, CheckpointInterchangesWithShardedEngine) {
  const auto records = feed(800, 0xCC99u);
  const std::size_t cut = records.size() / 2;

  for (const int shards : {1, 2, 4}) {
    DistEngine dist(dist_config(shards));
    stream::ShardedEngine sharded(engine_config(shards));
    for (std::size_t i = 0; i < cut; ++i) {
      dist.push(records[i]);
      sharded.push(records[i]);
    }
    const stream::Checkpoint image = dist.checkpoint();
    // Both engines compose their images the same way, from the same
    // frontend and the same shard states: the encoded bytes are equal.
    EXPECT_EQ(stream::encode(image), stream::encode(sharded.checkpoint()))
        << "mid-stream, shards=" << shards;

    // The distributed engine's composed image restores into an in-process
    // engine, which then finishes the feed bit-identically to the
    // distributed run that never stopped.
    stream::ShardedEngine resumed(engine_config(shards));
    ASSERT_TRUE(resumed.restore(image)) << "shards=" << shards;
    for (std::size_t i = cut; i < records.size(); ++i) {
      resumed.push(records[i]);
      dist.push(records[i]);
      sharded.push(records[i]);
    }
    resumed.finish();
    dist.finish();
    sharded.finish();
    std::string why;
    EXPECT_TRUE(
        stream::reports_identical(dist.snapshot(), resumed.snapshot(), &why))
        << "shards=" << shards << ": " << why;
    const auto final_image = stream::encode(dist.checkpoint());
    EXPECT_EQ(final_image, stream::encode(sharded.checkpoint()))
        << "finished, shards=" << shards;
    EXPECT_EQ(final_image, stream::encode(resumed.checkpoint()))
        << "finished, shards=" << shards;
  }
}

TEST(DistEngine, BothEnginesRejectANonPositivePlausibilityBound) {
  // Without the bound nothing caps a routed duration, and the producer's
  // dense duration histogram would size itself to the largest one. Both
  // engines refuse the config before starting any thread or process.
  for (const std::int32_t bound : {0, -1}) {
    DistConfig config = dist_config(2);
    config.stream.clean.max_plausible_duration_s = bound;
    EXPECT_THROW(stream::ShardedEngine{config.stream}, std::invalid_argument)
        << "bound=" << bound;
    EXPECT_THROW(DistEngine{config}, std::invalid_argument)
        << "bound=" << bound;
  }
}

TEST(DistEngine, PushAfterFinishThrows) {
  DistEngine dist(dist_config(1));
  dist.push(conn(1, 1, 1000, 30));
  dist.finish();
  EXPECT_THROW(dist.push(conn(2, 1, 2000, 30)), stream::StreamStateError);
  // The final state stays serveable.
  const auto report = dist.snapshot();
  EXPECT_EQ(report.engine.records_routed, 1u);
}

}  // namespace
}  // namespace ccms::dist
