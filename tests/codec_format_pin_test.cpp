// Format pins for the two persisted byte layouts: a CCKP checkpoint image of
// a small deterministic engine (pinned by size and CRC32) and one CCWF frame
// of every type (pinned byte for byte). The round-trip suites pass whenever
// the encoder and decoder move together; these pins fail when the layout
// itself moves, which must come with a Checkpoint::kVersion or
// kProtocolVersion bump and new pinned values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "dist/wire.h"
#include "dist/worker.h"
#include "sim/simulator.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/feed.h"
#include "stream/frontend.h"
#include "test_helpers.h"
#include "util/binio.h"
#include "util/rng.h"

namespace ccms {
namespace {

using test::conn;

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

/// A mid-stream image with state in every section: clean-screen drops,
/// quarantined late records, open sessions, held reorder records, active
/// and folded concurrency bins and exactly-once cursors.
stream::StreamConfig pin_config() {
  stream::StreamConfig config;
  config.shards = 2;
  config.allowed_lateness = 300;
  config.fleet_size = 12;
  config.study_days = 3;
  config.batch_records = 8;
  config.exactly_once = true;
  return config;
}

std::vector<std::uint8_t> engine_image() {
  stream::ShardedEngine engine(pin_config());
  util::Rng rng(0xC0DEu);
  time::Seconds t = 500;
  for (int i = 0; i < 240; ++i) {
    t += rng.uniform_int(1, 60);
    auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 10));
    const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
    auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
    const double dice = rng.uniform();
    if (dice < 0.03) duration = 3600;       // hour artifact
    else if (dice < 0.05) duration = 0;     // nonpositive
    time::Seconds start = t;
    if (dice > 0.96 && t > 2000) {
      // Late, on a car of its own so the exactly-once cursor of a busy car
      // does not drop it as a re-delivery first.
      car = 11;
      start = t - 1200;
    }
    engine.push(conn(car, cell, start, duration));
  }
  return stream::encode(engine.checkpoint());
}

TEST(CodecFormatPin, VersionsAreUnchanged) {
  EXPECT_EQ(stream::Checkpoint::kVersion, 4u);
  EXPECT_EQ(dist::kProtocolVersion, 1u);
}

TEST(CodecFormatPin, CheckpointImageSizeAndCrc) {
  const std::vector<std::uint8_t> image = engine_image();
  EXPECT_EQ(image.size(), 17986u);
  EXPECT_EQ(binio::crc32(image), 119928716u);

  // The pin covers every variable-length field list of the image.
  cdr::IngestReport report;
  const auto decoded = stream::decode(image, {}, report);
  ASSERT_TRUE(decoded.has_value());
  const stream::Checkpoint::Producer& p = decoded->producer;
  EXPECT_FALSE(p.ingest.quarantine.empty());
  EXPECT_GT(p.clean.hour_artifacts_removed, 0u);
  EXPECT_FALSE(p.cursors.empty());
  // Each shard section, loaded into a shard and viewed.
  bool open_session = false;
  bool reorder = false;
  bool provisional = false;  // open bins
  bool folded = false;
  bool p2_prefix = false;   // a P2 state below 5 observations
  bool p2_markers = false;  // and one past them
  for (std::size_t i = 0; i < decoded->shards.size(); ++i) {
    stream::ShardState shard(pin_config(), static_cast<int>(i));
    stream::load_shard(decoded->shards[i], shard);
    const stream::ShardSnapshot view = shard.snapshot();
    open_session |= view.sessions_open > 0;
    reorder |= view.reorder_pending > 0;
    for (const stream::BinCounts& bin : view.bins) {
      provisional |= bin.provisional;
      folded |= !bin.provisional;
    }
    // Every duration is finite, so a cell's P2 count is its connections.
    for (const auto& cell : view.cell_stats) {
      p2_prefix |= cell.connections < 5;
      p2_markers |= cell.connections > 5;
    }
  }
  EXPECT_TRUE(open_session);
  EXPECT_TRUE(reorder);
  EXPECT_TRUE(provisional);
  EXPECT_TRUE(folded);
  EXPECT_TRUE(p2_prefix);
  EXPECT_TRUE(p2_markers);
}

/// The shard sections of a 300-car x 14-day simulated feed at 3 shards,
/// fed Frontend batches as an engine feeds them: mid-stream, with open bins
/// and held reorder records, and after close().
struct SimSections {
  std::vector<std::vector<std::uint8_t>> mid;
  std::vector<std::vector<std::uint8_t>> closed;
};

SimSections sim_sections() {
  sim::SimConfig config = sim::SimConfig::paper_default();
  config.fleet.size = 300;
  config.study_days = 14;
  config.seed = 20170901;
  const sim::Study study = sim::simulate(config);
  const std::vector<cdr::Connection> arrivals =
      stream::arrival_order(study.raw);

  stream::Frontend frontend(stream::config_for(study.raw, 3));
  std::deque<stream::ShardState> shards;
  for (int i = 0; i < 3; ++i) shards.emplace_back(frontend.config(), i);
  const auto deliver = [&](std::size_t shard) {
    const stream::Batch batch = frontend.flush(shard);
    for (const cdr::Connection& c : batch.records) shards[shard].offer(c);
    shards[shard].advance(batch.watermark);
  };
  SimSections sections;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i == arrivals.size() / 2) {
      for (auto& shard : shards) sections.mid.push_back(write_shard(shard));
    }
    if (const auto full = frontend.offer(arrivals[i])) deliver(*full);
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    deliver(s);
    shards[s].close();
    sections.closed.push_back(write_shard(shards[s]));
  }
  return sections;
}

TEST(CodecFormatPin, SimulatedShardSectionSizesAndCrcs) {
  const SimSections sections = sim_sections();
  ASSERT_EQ(sections.mid.size(), 3u);
  ASSERT_EQ(sections.closed.size(), 3u);
  const std::vector<std::pair<std::size_t, std::uint32_t>> mid = {
      {178008u, 526925089u}, {184928u, 57858577u}, {197248u, 2395765070u}};
  const std::vector<std::pair<std::size_t, std::uint32_t>> closed = {
      {237567u, 2396953824u}, {223078u, 3047905812u}, {252262u, 3826221830u}};
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sections.mid[s].size(), mid[s].first) << "mid, shard " << s;
    EXPECT_EQ(binio::crc32(sections.mid[s]), mid[s].second)
        << "mid, shard " << s;
    EXPECT_EQ(sections.closed[s].size(), closed[s].first)
        << "closed, shard " << s;
    EXPECT_EQ(binio::crc32(sections.closed[s]), closed[s].second)
        << "closed, shard " << s;
  }

  // The mid-stream sections hold what the pin is meant to cover: open bins
  // many cells wide, held records and cars seen on many days.
  for (std::size_t s = 0; s < 3; ++s) {
    stream::StreamConfig config = pin_config();
    config.shards = 3;
    stream::ShardState shard(config, static_cast<int>(s));
    stream::load_shard(sections.mid[s], shard);
    const stream::ShardSnapshot view = shard.snapshot();
    EXPECT_GT(view.reorder_pending, 0u) << "shard " << s;
    std::size_t widest_open = 0;
    for (const stream::BinCounts& bin : view.bins) {
      if (bin.provisional) {
        widest_open = std::max(widest_open, bin.cells.size());
      }
    }
    EXPECT_GT(widest_open, 20u) << "shard " << s;
    EXPECT_GT(view.cell_stats.size(), 1000u) << "shard " << s;
    int most_days = 0;
    for (const auto& car : view.cars) most_days = std::max(most_days, car.days);
    EXPECT_GE(most_days, 5) << "shard " << s;
  }
}

/// A dist worker's rolling image frame: shard 1 of the pin config after a
/// few batches, with open sessions, held records and open bins, and the
/// placeholder section of shard 0, which this worker does not own.
std::vector<std::uint8_t> worker_image_frame() {
  dist::WorkerCore core(pin_config(), 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  util::Rng rng(0xF2A3Eu);
  time::Seconds t = 500;
  std::uint64_t seq = 0;
  for (int batch = 0; batch < 6; ++batch) {
    dist::Frame frame;
    frame.type = dist::FrameType::kBatch;
    for (int i = 0; i < 10; ++i) {
      t += rng.uniform_int(1, 90);
      const auto car =
          static_cast<std::uint32_t>(2 * rng.uniform_int(0, 5) + 1);
      const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
      const auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
      frame.batch.records.push_back(conn(car, cell, t, duration));
    }
    seq += frame.batch.records.size();
    frame.batch.seq_of_last = seq;
    frame.batch.watermark = t - 300;
    core.on_frame(frame, out);
  }
  out.clear();
  dist::Frame request;
  request.type = dist::FrameType::kCheckpointRequest;
  core.on_frame(request, out);
  return out.at(0);
}

TEST(CodecFormatPin, WorkerImageFrameSizeAndCrc) {
  const std::vector<std::uint8_t> frame = worker_image_frame();
  EXPECT_EQ(frame.size(), 6377u);
  EXPECT_EQ(binio::crc32(frame), 4215302974u);

  // Composed in place, it is the frame of the encoded image.
  dist::FrameDecoder decoder;
  decoder.feed(frame);
  dist::Frame parsed;
  ASSERT_EQ(decoder.next(parsed), dist::FrameDecoder::Status::kFrame);
  EXPECT_EQ(dist::encode_checkpoint_image(parsed.image), frame);
}

TEST(CodecFormatPin, EveryFrameTypeIsByteExact) {
  using namespace dist;
  const std::vector<std::uint8_t> image = {0xDE, 0xAD, 0xBE, 0xEF};
  BatchFrame batch;
  batch.seq_of_last = 41;
  batch.watermark = -7;
  batch.records = {conn(1, 10, 1000, 60), conn(0xABCDEF, 3, 86400, 3600)};

  EXPECT_EQ(hex(encode_hello({kProtocolVersion, 3, 7})),
            "43435746010000000c00000000000000010000000300000007000000"
            "d9e12f79");
  EXPECT_EQ(hex(encode_batch(batch)),
            "434357460200000040000000000000002900000000000000f9ffffff"
            "ffffffff0200000000000000010000000a000000e803000000000000"
            "3c000000efcdab00030000008051010000000000100e000005219220");
  EXPECT_EQ(hex(encode_checkpoint_request()),
            "434357460300000000000000000000009f144b0c");
  EXPECT_EQ(hex(encode_checkpoint_image({77, true, image})),
            "43435746040000000d000000000000004d0000000000000001deadbe"
            "ef046eba20");
  EXPECT_EQ(hex(encode_restore({image})),
            "43435746050000000400000000000000deadbeef7ad13cc8");
  EXPECT_EQ(hex(encode_restore_result({false, "skew"})),
            "43435746060000000d00000000000000000400000000000000736b65"
            "77cb8720c2");
  EXPECT_EQ(hex(encode_heartbeat({0x0102030405060708ull})),
            "4343574607000000080000000000000008070605040302011d906c5d");
  EXPECT_EQ(hex(encode_finish()),
            "4343574608000000000000000000000091b0d97d");
}

}  // namespace
}  // namespace ccms
