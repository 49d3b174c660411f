// Checkpoint/restore of the sharded streaming engine: a killed-and-restored
// run must be bitwise identical to one that never stopped — at every shard
// width, from every kill point — and a corrupt or mismatched checkpoint must
// go through the Strict/Lenient + IngestReport discipline, never a silent
// partial resume.
#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cdr/clean.h"
#include "cdr/integrity.h"
#include "stream/engine.h"
#include "stream/report.h"
#include "test_helpers.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using test::conn;

StreamConfig feed_config(int shards) {
  StreamConfig config;
  config.shards = shards;
  config.allowed_lateness = 300;
  config.fleet_size = 16;
  config.study_days = 7;
  config.batch_records = 8;  // small batches exercise the queue path
  return config;
}

/// A deterministic mixed feed: mostly clean in-order records, with §3-dirty
/// durations sprinkled in and occasional genuinely-late records so the
/// clean screen *and* the watermark quarantine both carry state across a
/// checkpoint.
std::vector<cdr::Connection> synthetic_feed(std::size_t n,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cdr::Connection> records;
  records.reserve(n);
  time::Seconds t = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform_int(1, 40);
    const auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
    const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
    std::int32_t duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
    const double dice = rng.uniform();
    if (dice < 0.02) {
      duration = 3600;  // hour artifact
    } else if (dice < 0.04) {
      duration = 0;  // nonpositive
    } else if (dice < 0.05) {
      duration = 500000;  // implausible
    }
    time::Seconds start = t;
    if (dice > 0.97 && t > 2000) {
      start = t - 1500;  // far past the watermark: quarantined late
    }
    records.push_back(conn(car, cell, start, duration));
  }
  return records;
}

/// The reference: one uninterrupted run over the whole feed.
StreamReport uninterrupted_run(const std::vector<cdr::Connection>& records,
                               int shards) {
  ShardedEngine engine(feed_config(shards));
  for (const cdr::Connection& c : records) engine.push(c);
  engine.finish();
  return engine.snapshot();
}

/// Kill after `kill_at` records (checkpoint through an encode/decode byte
/// round trip), restore into a fresh engine, push the rest, compare.
void expect_kill_restore_parity(const std::vector<cdr::Connection>& records,
                                int shards, std::size_t kill_at) {
  SCOPED_TRACE(testing::Message()
               << "shards=" << shards << " kill_at=" << kill_at);
  const StreamReport reference = uninterrupted_run(records, shards);

  ShardedEngine first(feed_config(shards));
  for (std::size_t i = 0; i < kill_at; ++i) first.push(records[i]);
  const Checkpoint saved = first.checkpoint();

  // The image survives serialization bit-for-bit.
  const std::vector<std::uint8_t> bytes = encode(saved);
  cdr::IngestReport decode_report;
  cdr::IngestOptions strict;
  const auto loaded = decode(bytes, strict, decode_report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(encode(*loaded), bytes);

  ShardedEngine resumed(feed_config(shards));
  ASSERT_TRUE(resumed.restore(*loaded));
  EXPECT_EQ(resumed.watermark(), first.watermark());
  for (std::size_t i = kill_at; i < records.size(); ++i) {
    resumed.push(records[i]);
  }
  resumed.finish();

  std::string why;
  EXPECT_TRUE(reports_identical(reference, resumed.snapshot(), &why)) << why;
}

/// First index past `from` whose record advances the watermark (clean, in
/// order, new max start) — the "at-watermark" kill point.
std::size_t watermark_advance_after(const std::vector<cdr::Connection>& records,
                                    std::size_t from) {
  time::Seconds max_start = std::numeric_limits<time::Seconds>::min();
  std::size_t found = records.size() / 2;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const cdr::Connection& c = records[i];
    const bool clean = c.duration_s > 0 && c.duration_s != 3600 &&
                       c.duration_s <= 48 * 3600;
    if (!clean) continue;
    if (c.start > max_start) {
      max_start = c.start;
      if (i > from) return i + 1;  // checkpoint right after the advance
    }
  }
  return found;
}

TEST(StreamCheckpointTest, KillRestoreParityAcrossWidthsAndKillPoints) {
  const std::vector<cdr::Connection> records = synthetic_feed(2000, 42);
  for (int shards : {1, 4, 8}) {
    const std::size_t kill_points[] = {
        records.size() / 8,                             // early
        records.size() / 2,                             // mid
        watermark_advance_after(records, records.size() / 2),  // at-watermark
    };
    for (std::size_t kill_at : kill_points) {
      expect_kill_restore_parity(records, shards, kill_at);
    }
  }
}

TEST(StreamCheckpointTest, FinishedCheckpointRestoresFinished) {
  const std::vector<cdr::Connection> records = synthetic_feed(600, 7);
  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ShardedEngine first(feed_config(shards));
    for (const cdr::Connection& c : records) first.push(c);
    first.finish();
    const StreamReport reference = first.snapshot();
    const Checkpoint saved = first.checkpoint();
    EXPECT_TRUE(saved.finished);

    ShardedEngine resumed(feed_config(shards));
    ASSERT_TRUE(resumed.restore(saved));
    EXPECT_TRUE(resumed.finished());
    std::string why;
    EXPECT_TRUE(reports_identical(reference, resumed.snapshot(), &why)) << why;
    EXPECT_THROW(resumed.push(conn(0, 0, 99999, 60)), StreamStateError);
  }
}

TEST(StreamCheckpointTest, PushAfterFinishIsDefinedError) {
  ShardedEngine engine(feed_config(2));
  engine.push(conn(0, 0, 100, 60));
  engine.finish();
  EXPECT_THROW(engine.push(conn(1, 0, 200, 60)), StreamStateError);
  // snapshot()/checkpoint() after finish stay valid and stable.
  const StreamReport a = engine.snapshot();
  const StreamReport b = engine.snapshot();
  std::string why;
  EXPECT_TRUE(reports_identical(a, b, &why)) << why;
  EXPECT_EQ(a.ingest.records_accepted, 1u);
}

TEST(StreamCheckpointTest, ComparatorIgnoresOnlyDeliveryTelemetry) {
  const StreamReport reference = uninterrupted_run(synthetic_feed(400, 5), 2);
  ASSERT_GT(reference.engine.records_routed, 0u);

  // What an at-least-once redelivery legitimately changes.
  StreamReport redelivered = reference;
  redelivered.ingest.mode = cdr::ParseMode::kLenient;
  redelivered.ingest.bytes_consumed += 100;
  redelivered.ingest.rows_read += 7;
  redelivered.ingest.bom_stripped = !reference.ingest.bom_stripped;
  redelivered.engine.records_offered += 7;
  redelivered.engine.records_replayed += 7;
  redelivered.engine.reorder_peak += 3;
  std::string why;
  EXPECT_TRUE(reports_identical(reference, redelivered, &why)) << why;

  // A degraded shard's reason is not compared; what it lost is.
  StreamReport degraded_a = reference;
  degraded_a.degraded_shards.push_back({1, 5, "operator threw"});
  StreamReport degraded_b = reference;
  degraded_b.degraded_shards.push_back({1, 5, "operator threw again"});
  EXPECT_TRUE(reports_identical(degraded_a, degraded_b, &why)) << why;
  degraded_b.degraded_shards.back().records_lost = 6;
  EXPECT_FALSE(reports_identical(degraded_a, degraded_b, &why));
  EXPECT_EQ(why, "degraded_shards");

  StreamReport rerouted = reference;
  ++rerouted.engine.records_routed;
  EXPECT_FALSE(reports_identical(reference, rerouted, &why));
  EXPECT_EQ(why, "engine");
}

TEST(StreamCheckpointTest, RestoreRequiresPristineEngine) {
  ShardedEngine source(feed_config(1));
  source.push(conn(0, 0, 100, 60));
  const Checkpoint saved = source.checkpoint();

  ShardedEngine dirty(feed_config(1));
  dirty.push(conn(1, 0, 100, 60));
  EXPECT_THROW((void)dirty.restore(saved), StreamStateError);
}

TEST(StreamCheckpointTest, ConfigMismatchIsAccountedNotSilent) {
  ShardedEngine source(feed_config(2));
  source.push(conn(0, 0, 100, 60));
  const Checkpoint saved = source.checkpoint();

  StreamConfig other = feed_config(2);
  other.session_gap += 60;  // analytic-semantic difference
  {
    ShardedEngine target(other);
    cdr::IngestReport report;
    EXPECT_FALSE(target.restore(saved, &report));
    EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u);
    ASSERT_EQ(report.quarantine.size(), 1u);
    EXPECT_EQ(report.quarantine[0].fault,
              cdr::FaultClass::kCheckpointMismatch);
    // The refused engine is still pristine and usable.
    target.push(conn(0, 0, 100, 60));
    target.finish();
  }
  {
    ShardedEngine target(other);
    EXPECT_THROW((void)target.restore(saved), util::CsvError);
  }

  // Tunables are restorable across: a different batch size is fine.
  StreamConfig tunable = feed_config(2);
  tunable.batch_records = 128;
  ShardedEngine target(tunable);
  EXPECT_TRUE(target.restore(saved));
}

TEST(StreamCheckpointTest, CorruptImagesFollowStrictLenientDiscipline) {
  ShardedEngine engine(feed_config(2));
  for (const cdr::Connection& c : synthetic_feed(300, 3)) engine.push(c);
  const std::vector<std::uint8_t> bytes = encode(engine.checkpoint());

  struct Case {
    const char* name;
    std::vector<std::uint8_t> image;
    cdr::FaultClass expected;
  };
  std::vector<Case> cases;

  {
    auto damaged = bytes;
    damaged[0] ^= 0xFF;  // magic
    cases.push_back({"bad-magic", damaged, cdr::FaultClass::kBadHeader});
  }
  {
    auto damaged = bytes;
    damaged[4] ^= 0xFF;  // version
    cases.push_back(
        {"bad-version", damaged, cdr::FaultClass::kCheckpointMismatch});
  }
  {
    auto damaged = bytes;
    damaged[damaged.size() / 2] ^= 0x01;  // payload bit flip
    cases.push_back(
        {"bit-flip", damaged, cdr::FaultClass::kChecksumMismatch});
  }
  {
    auto damaged = bytes;
    damaged.resize(damaged.size() - 7);  // torn tail
    cases.push_back(
        {"truncated", damaged, cdr::FaultClass::kTruncatedPayload});
  }
  cases.push_back({"empty", {}, cdr::FaultClass::kBadHeader});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    cdr::IngestOptions strict;
    cdr::IngestReport strict_report;
    EXPECT_THROW((void)decode(c.image, strict, strict_report),
                 util::CsvError);

    cdr::IngestOptions lenient;
    lenient.mode = cdr::ParseMode::kLenient;
    cdr::IngestReport report;
    EXPECT_FALSE(decode(c.image, lenient, report).has_value());
    EXPECT_EQ(report.count(c.expected), 1u);
    ASSERT_EQ(report.quarantine.size(), 1u);
    EXPECT_EQ(report.quarantine[0].fault, c.expected);
    EXPECT_FALSE(report.quarantine[0].reason.empty());
  }
}

TEST(StreamCheckpointTest, FileRoundTripAndMissingFile) {
  const std::string path =
      testing::TempDir() + "/ccms_stream_checkpoint_test.cckp";
  ShardedEngine engine(feed_config(4));
  for (const cdr::Connection& c : synthetic_feed(400, 11)) engine.push(c);
  const Checkpoint saved = engine.checkpoint();
  save_checkpoint(saved, path);

  cdr::IngestOptions strict;
  cdr::IngestReport report;
  const auto loaded = load_checkpoint(path, strict, report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(encode(*loaded), encode(saved));
  std::remove(path.c_str());

  EXPECT_THROW((void)load_checkpoint(path, strict, report), util::CsvError);
  cdr::IngestOptions lenient;
  lenient.mode = cdr::ParseMode::kLenient;
  cdr::IngestReport lenient_report;
  EXPECT_FALSE(load_checkpoint(path, lenient, lenient_report).has_value());
  EXPECT_EQ(lenient_report.count(cdr::FaultClass::kBadHeader), 1u);
}

TEST(StreamCheckpointTest, QuarantineCapAlignsWithIngestSemantics) {
  // Cap 0 retains nothing but counts everything — a pathological all-late
  // feed cannot grow the quarantine.
  StreamConfig none = feed_config(1);
  none.quarantine_cap = 0;
  ShardedEngine engine(none);
  engine.push(conn(0, 0, 100000, 60));  // watermark 99700
  for (std::uint32_t i = 0; i < 50; ++i) engine.push(conn(i, 0, 100 + i, 60));
  engine.finish();
  const StreamReport report = engine.snapshot();
  EXPECT_EQ(report.ingest.quarantine.size(), 0u);
  EXPECT_EQ(report.ingest.quarantine_overflow, 50u);
  EXPECT_EQ(report.ingest.count(cdr::FaultClass::kOutOfOrderRecord), 50u);
}

TEST(StreamCheckpointTest, RestoreRecapsLoadedQuarantine) {
  StreamConfig wide = feed_config(1);
  wide.quarantine_cap = 8;
  ShardedEngine source(wide);
  source.push(conn(0, 0, 100000, 60));
  for (std::uint32_t i = 0; i < 5; ++i) source.push(conn(i, 0, 100 + i, 60));
  const Checkpoint saved = source.checkpoint();
  ASSERT_EQ(saved.producer.ingest.quarantine.size(), 5u);

  StreamConfig narrow = feed_config(1);
  narrow.quarantine_cap = 2;
  ShardedEngine target(narrow);
  ASSERT_TRUE(target.restore(saved));
  target.finish();
  const StreamReport report = target.snapshot();
  EXPECT_EQ(report.ingest.quarantine.size(), 2u);
  EXPECT_EQ(report.ingest.quarantine_overflow, 3u);
  // Counters are untouched by the re-cap.
  EXPECT_EQ(report.ingest.count(cdr::FaultClass::kOutOfOrderRecord), 5u);
}

// Regression: a CRC-valid in-memory checkpoint whose shard geometry was
// tampered (routed_per_shard table or shard-image list of the wrong length)
// used to be silently resized on restore, fabricating or dropping per-shard
// routing history. It must refuse with kCheckpointMismatch instead.
TEST(StreamCheckpointTest, RestoreRefusesWrongLengthRoutedPerShard) {
  ShardedEngine source(feed_config(2));
  source.push(conn(0, 0, 100, 60));
  source.push(conn(1, 0, 110, 60));
  Checkpoint saved = source.checkpoint();
  ASSERT_EQ(saved.producer.routed_per_shard.size(), 2u);
  saved.producer.routed_per_shard.push_back(7);  // three entries, two shards

  {
    ShardedEngine target(feed_config(2));
    cdr::IngestReport report;
    EXPECT_FALSE(target.restore(saved, &report));
    EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u);
    // The refused engine is still pristine and usable.
    target.push(conn(0, 0, 100, 60));
    target.finish();
  }
  {
    ShardedEngine target(feed_config(2));
    EXPECT_THROW((void)target.restore(saved), util::CsvError);
  }

  // Truncated table: same refusal.
  saved.producer.routed_per_shard.resize(1);
  ShardedEngine target(feed_config(2));
  cdr::IngestReport report;
  EXPECT_FALSE(target.restore(saved, &report));
  EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u);
}

TEST(StreamCheckpointTest, RestoreRefusesWrongShardImageCount) {
  ShardedEngine source(feed_config(2));
  source.push(conn(0, 0, 100, 60));
  Checkpoint saved = source.checkpoint();
  ASSERT_EQ(saved.shards.size(), 2u);
  saved.shards.push_back(saved.shards.back());  // one image too many

  ShardedEngine target(feed_config(2));
  cdr::IngestReport report;
  EXPECT_FALSE(target.restore(saved, &report));
  EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u);
}

}  // namespace
}  // namespace ccms::stream
