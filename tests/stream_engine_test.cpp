#include "stream/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "cdr/clean.h"
#include "cdr/session.h"
#include "core/cell_sessions.h"
#include "stats/quantile.h"
#include "stream/feed.h"
#include "stream/operators.h"
#include "stream/report.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using test::conn;

StreamConfig tiny_config(int shards = 1) {
  StreamConfig config;
  config.shards = shards;
  config.allowed_lateness = 300;
  config.fleet_size = 16;
  config.study_days = 7;
  config.batch_records = 4;  // small batches exercise the queue path
  return config;
}

TEST(StreamEngineTest, CleanScreenMatchesBatchRules) {
  ShardedEngine engine(tiny_config());
  engine.push(conn(0, 0, 100, 60));     // clean
  engine.push(conn(0, 0, 200, 0));      // nonpositive
  engine.push(conn(0, 0, 300, -5));     // nonpositive
  engine.push(conn(0, 0, 400, 3600));   // hour artifact
  engine.push(conn(0, 0, 500, 500000)); // implausible (> 48 h)
  engine.finish();

  const StreamReport report = engine.snapshot();
  EXPECT_EQ(report.clean.input_records, 5u);
  EXPECT_EQ(report.clean.nonpositive_removed, 2u);
  EXPECT_EQ(report.clean.hour_artifacts_removed, 1u);
  EXPECT_EQ(report.clean.implausible_removed, 1u);
  EXPECT_EQ(report.ingest.records_accepted, 1u);
  EXPECT_EQ(report.engine.records_integrated, 1u);
}

TEST(StreamEngineTest, LateRecordsQuarantinedAndCounted) {
  ShardedEngine engine(tiny_config());
  engine.push(conn(0, 0, 0, 60));
  engine.push(conn(1, 0, 1000, 60));  // watermark -> 700
  EXPECT_EQ(engine.watermark(), 700);
  engine.push(conn(2, 0, 500, 60));  // 500 < 700: late
  engine.push(conn(3, 0, 699, 60));  // 699 < 700: late
  engine.push(conn(4, 0, 700, 60));  // exactly at the watermark: accepted
  engine.push(conn(5, 0, 701, 60));  // accepted
  engine.finish();

  EXPECT_EQ(engine.late_records(), 2u);
  const StreamReport report = engine.snapshot();
  EXPECT_EQ(report.ingest.records_dropped, 2u);
  EXPECT_EQ(report.ingest.count(cdr::FaultClass::kOutOfOrderRecord), 2u);
  EXPECT_EQ(report.ingest.records_accepted, 4u);
  EXPECT_EQ(report.engine.records_integrated, 4u);
  ASSERT_EQ(report.ingest.quarantine.size(), 2u);
  EXPECT_EQ(report.ingest.quarantine[0].fault,
            cdr::FaultClass::kOutOfOrderRecord);
  EXPECT_FALSE(report.ingest.quarantine[0].reason.empty());
}

TEST(StreamEngineTest, QuarantineCapCountsOverflow) {
  StreamConfig config = tiny_config();
  config.quarantine_cap = 2;
  ShardedEngine engine(config);
  engine.push(conn(0, 0, 10000, 60));  // watermark 9700
  for (std::uint32_t i = 0; i < 5; ++i) {
    engine.push(conn(i, 0, 100 + i, 60));
  }
  engine.finish();
  const StreamReport report = engine.snapshot();
  EXPECT_EQ(engine.late_records(), 5u);
  EXPECT_EQ(report.ingest.quarantine.size(), 2u);
  EXPECT_EQ(report.ingest.quarantine_overflow, 3u);
}

TEST(StreamEngineTest, ReorderWindowRestoresStartOrder) {
  // Out-of-order arrivals inside the window must sessionize exactly as the
  // sorted batch: {100, 50, 160} for one car is one gap-joined pair plus
  // the 160 leg (gap 30 s), i.e. what aggregate_sessions produces.
  std::vector<cdr::Connection> arrivals = {
      conn(0, 0, 100, 20),
      conn(0, 0, 50, 40),  // 50 + 40 = 90; 100 - 90 = 10 <= gap
      conn(0, 0, 160, 10),
  };
  ShardedEngine engine(tiny_config());
  for (const auto& c : arrivals) engine.push(c);
  engine.finish();
  const StreamReport report = engine.snapshot();

  const cdr::Dataset sorted = test::make_dataset(arrivals, 16, 7);
  std::size_t batch_sessions = 0;
  double batch_span_sum = 0;
  sorted.for_each_car([&](CarId, std::span<const cdr::Connection> records) {
    for (const cdr::Session& s : cdr::aggregate_sessions(records)) {
      ++batch_sessions;
      batch_span_sum += static_cast<double>(s.span.duration());
    }
  });
  EXPECT_EQ(engine.late_records(), 0u);
  EXPECT_EQ(report.sessions_closed, batch_sessions);
  EXPECT_EQ(report.sessions_open, 0u);
  EXPECT_DOUBLE_EQ(report.session_span.sum(), batch_span_sum);
}

TEST(StreamEngineTest, StartSortedFeedIsNeverLate) {
  util::Rng rng(5);
  std::vector<cdr::Connection> records;
  time::Seconds t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform_int(0, 400);  // gaps may far exceed the lateness
    records.push_back(conn(static_cast<std::uint32_t>(rng.uniform_int(0, 15)),
                           static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
                           t, 30));
  }
  ShardedEngine engine(tiny_config(4));
  for (const auto& c : records) engine.push(c);
  engine.finish();
  EXPECT_EQ(engine.late_records(), 0u);
  EXPECT_EQ(engine.snapshot().engine.records_integrated, records.size());
}

TEST(StreamEngineTest, MidStreamSnapshotSeesAllPushedRecords) {
  ShardedEngine engine(tiny_config(2));
  for (std::uint32_t i = 0; i < 10; ++i) {
    engine.push(conn(i % 4, 0, 1000 * i, 120));
  }
  const StreamReport mid = engine.snapshot();  // no finish yet
  EXPECT_EQ(mid.engine.records_offered, 10u);
  // Watermark-consistent: everything older than the watermark is
  // integrated, the rest is pending in the reorder window — never lost.
  EXPECT_EQ(mid.engine.records_integrated + mid.engine.reorder_pending, 10u);
  EXPECT_GT(mid.engine.records_integrated, 0u);
  EXPECT_EQ(mid.presence.fleet_size, 16u);

  engine.finish();
  const StreamReport done = engine.snapshot();
  EXPECT_EQ(done.engine.records_integrated, 10u);
  EXPECT_EQ(done.engine.reorder_pending, 0u);
}

TEST(StreamEngineTest, PerCarTotalsMatchBatchUnionAcrossShards) {
  util::Rng rng(6);
  std::vector<cdr::Connection> records;
  for (std::uint32_t car = 0; car < 8; ++car) {
    time::Seconds t = 1000 * car;
    for (int i = 0; i < 20; ++i) {
      t += rng.uniform_int(5, 2000);
      records.push_back(conn(car, car % 3, t,
                             static_cast<std::int32_t>(rng.uniform_int(10, 900))));
    }
  }
  const cdr::Dataset dataset = test::make_dataset(records, 8, 3);

  for (const int shards : {1, 3, 8}) {
    StreamConfig config;
    config.shards = shards;
    config.fleet_size = 8;
    config.study_days = 3;
    ShardedEngine engine(config);
    replay(dataset, engine);
    const StreamReport report = engine.snapshot();

    std::vector<double> batch_full;
    dataset.for_each_car([&](CarId, std::span<const cdr::Connection> c) {
      batch_full.push_back(static_cast<double>(cdr::union_connected_time(c)) /
                           (3.0 * time::kSecondsPerDay));
    });
    const stats::EmpiricalDistribution batch(std::move(batch_full));
    ASSERT_EQ(report.connected_time.full.size(), batch.size());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      EXPECT_DOUBLE_EQ(report.connected_time.full.quantile(q),
                       batch.quantile(q))
          << "shards=" << shards << " q=" << q;
    }
  }
}

TEST(StreamEngineTest, ConcurrencyBinsFoldAfterWatermark) {
  StreamConfig config = tiny_config();
  config.recent_bins = 8;
  ShardedEngine engine(config);
  // Three cars overlap in bin 0 ([0, 900)); one of them reaches bin 1.
  engine.push(conn(0, 7, 100, 60));
  engine.push(conn(1, 7, 200, 60));
  engine.push(conn(2, 8, 300, 700));  // spans into [900, 1800)
  engine.push(conn(3, 9, 5000, 60));  // pushes the watermark past both bins
  engine.finish();

  const StreamReport report = engine.snapshot();
  ASSERT_GE(report.recent_bins.size(), 2u);
  const BinCounts& bin0 = report.recent_bins.front();
  EXPECT_EQ(bin0.bin, 0);
  EXPECT_EQ(bin0.cars, 3u);
  EXPECT_FALSE(bin0.provisional);
  ASSERT_EQ(bin0.cells.size(), 2u);  // cells 7 and 8
  EXPECT_EQ(bin0.cells[0].first, 7u);
  EXPECT_EQ(bin0.cells[0].second, 2u);
  EXPECT_EQ(bin0.cells[1].first, 8u);
  EXPECT_EQ(bin0.cells[1].second, 1u);
  const BinCounts& bin1 = report.recent_bins[1];
  EXPECT_EQ(bin1.bin, 1);
  EXPECT_EQ(bin1.cars, 1u);
}

TEST(StreamEngineTest, TopCellsRankedByConnections) {
  ShardedEngine engine(tiny_config(2));
  for (int i = 0; i < 6; ++i) engine.push(conn(i % 4, 5, 1000 * i, 100));
  for (int i = 0; i < 3; ++i) engine.push(conn(i, 9, 6000 + 1000 * i, 50));
  engine.finish();
  const StreamReport report = engine.snapshot();
  ASSERT_EQ(report.top_cells.size(), 2u);
  EXPECT_EQ(report.top_cells[0].cell, 5u);
  EXPECT_EQ(report.top_cells[0].connections, 6u);
  EXPECT_DOUBLE_EQ(report.top_cells[0].median_s, 100.0);
  EXPECT_EQ(report.top_cells[1].cell, 9u);
  EXPECT_EQ(report.top_cells[1].connections, 3u);
}

TEST(StreamEngineTest, DestructorFinishesCleanly) {
  StreamConfig config = tiny_config(4);
  ShardedEngine engine(config);
  for (std::uint32_t i = 0; i < 100; ++i) engine.push(conn(i % 8, 0, i * 10, 30));
  // No finish(): the destructor must flush, join and not deadlock.
}

TEST(StreamOperatorsTest, DayBitsSetTestCountMerge) {
  DayBits bits;
  EXPECT_TRUE(bits.set(0));
  EXPECT_FALSE(bits.set(0));
  EXPECT_TRUE(bits.set(89));
  EXPECT_TRUE(bits.test(0));
  EXPECT_FALSE(bits.test(42));
  EXPECT_EQ(bits.count(), 2);

  DayBits other;
  other.set(42);
  other.set(89);
  bits.merge(other);
  EXPECT_EQ(bits.count(), 3);
  EXPECT_TRUE(bits.test(42));
}

TEST(StreamReportTest, DurationTallyMatchesEmpiricalDistribution) {
  // Durations on both sides of the cap, with heavy ties (1..4000 over 20k
  // draws) and the cap itself present, through the tally and through the
  // batch analysis of the same records. An even count makes the median
  // interpolate between two order statistics.
  util::Rng rng(12);
  DurationTally tally(600);
  std::vector<cdr::Connection> records;
  for (int i = 0; i < 19999; ++i) {
    const auto d = static_cast<std::int32_t>(rng.uniform_int(1, 4000));
    tally.add(d);
    records.push_back(conn(static_cast<std::uint32_t>(i % 50), 0, i * 10, d));
  }
  tally.add(600);
  records.push_back(conn(0, 0, 300000, 600));
  const core::CellSessionStats batch =
      core::analyze_cell_sessions(test::make_dataset(records), 600);

  const core::CellSessionStats stats = tally.to_cell_stats();
  EXPECT_EQ(stats.median, batch.median);
  EXPECT_EQ(stats.mean_full, batch.mean_full);
  EXPECT_EQ(stats.mean_truncated, batch.mean_truncated);
  EXPECT_EQ(stats.cdf_at_cap, batch.cdf_at_cap);
  EXPECT_EQ(stats.cap, batch.cap);
  EXPECT_TRUE(stats.durations.empty());
  EXPECT_GT(stats.cdf_at_cap, 0.0);
  EXPECT_LT(stats.cdf_at_cap, 1.0);
}

}  // namespace
}  // namespace ccms::stream
