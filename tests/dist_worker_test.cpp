// WorkerCore, frame-driven (no sockets): batch integration + heartbeat
// replies, checkpoint/restore round trips that continue bit-exactly, clean
// refusal of config-fingerprint, shard-geometry and checkpoint-version skew
// (kCheckpointMismatch), deterministic fault injection, and protocol-error
// handling.
#include "dist/worker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "stream/checkpoint.h"
#include "test_helpers.h"

namespace ccms::dist {
namespace {

using test::conn;

stream::StreamConfig two_shard_config() {
  stream::StreamConfig config;
  config.shards = 2;
  config.allowed_lateness = 300;
  config.fleet_size = 8;
  config.study_days = 3;
  return config;
}

/// Decodes one reply frame emitted by the core.
Frame decode_reply(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  return frame;
}

Frame batch_frame(std::vector<cdr::Connection> records,
                  std::uint64_t seq_of_last, time::Seconds watermark) {
  Frame frame;
  frame.type = FrameType::kBatch;
  frame.batch.records = std::move(records);
  frame.batch.seq_of_last = seq_of_last;
  frame.batch.watermark = watermark;
  return frame;
}

TEST(DistWorker, BatchesIntegrateAndHeartbeatCarriesAppliedSeq) {
  WorkerCore core(two_shard_config(), 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  // Worker 1 owns odd car ids (car % 2 == 1).
  const auto action = core.on_frame(
      batch_frame({conn(1, 3, 1000, 60), conn(3, 4, 1010, 30)}, 2, 800), out);
  EXPECT_EQ(action, WorkerCore::Action::kContinue);
  EXPECT_EQ(core.applied_seq(), 2u);
  ASSERT_EQ(out.size(), 1u);
  const Frame reply = decode_reply(out[0]);
  EXPECT_EQ(reply.type, FrameType::kHeartbeat);
  EXPECT_EQ(reply.heartbeat.applied_seq, 2u);
}

TEST(DistWorker, CheckpointImageIsACompleteEngineCheckpoint) {
  const auto config = two_shard_config();
  WorkerCore core(config, 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  core.on_frame(batch_frame({conn(1, 3, 1000, 60)}, 1, 700), out);

  out.clear();
  Frame request;
  request.type = FrameType::kCheckpointRequest;
  EXPECT_EQ(core.on_frame(request, out), WorkerCore::Action::kContinue);
  ASSERT_EQ(out.size(), 1u);
  const Frame reply = decode_reply(out[0]);
  ASSERT_EQ(reply.type, FrameType::kCheckpointImage);
  EXPECT_EQ(reply.image.applied_seq, 1u);
  EXPECT_FALSE(reply.image.closed);

  // The wire image is a full stream::Checkpoint: it decodes, carries this
  // config's fingerprint, and holds the applied seq durably in
  // producer.routed_per_shard[worker].
  cdr::IngestOptions options;
  options.mode = cdr::ParseMode::kLenient;
  cdr::IngestReport report;
  report.mode = cdr::ParseMode::kLenient;
  const auto image = stream::decode(reply.image.image, options, report);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->config, stream::fingerprint_of(config));
  ASSERT_EQ(image->shards.size(), 2u);
  ASSERT_EQ(image->producer.routed_per_shard.size(), 2u);
  EXPECT_EQ(image->producer.routed_per_shard[1], 1u);
  EXPECT_EQ(image->producer.routed_per_shard[0], 0u);
}

TEST(DistWorker, RestoreContinuesBitExactly) {
  const auto config = two_shard_config();

  // Uninterrupted worker: all four records, then finish.
  const std::vector<cdr::Connection> first = {conn(1, 3, 1000, 60),
                                              conn(3, 4, 1010, 30)};
  const std::vector<cdr::Connection> second = {conn(5, 3, 1100, 45),
                                               conn(1, 4, 1200, 10)};
  WorkerCore uninterrupted(config, 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  uninterrupted.on_frame(batch_frame(first, 2, 800), out);
  uninterrupted.on_frame(batch_frame(second, 4, 950), out);
  out.clear();
  Frame finish;
  finish.type = FrameType::kFinish;
  EXPECT_EQ(uninterrupted.on_frame(finish, out), WorkerCore::Action::kFinished);
  ASSERT_EQ(out.size(), 1u);
  const Frame final_a = decode_reply(out[0]);

  // Killed-and-restored worker: image after the first batch, new core
  // restores from it, replays the second batch, finishes.
  WorkerCore before_kill(config, 1, {});
  out.clear();
  before_kill.on_frame(batch_frame(first, 2, 800), out);
  Frame request;
  request.type = FrameType::kCheckpointRequest;
  out.clear();
  before_kill.on_frame(request, out);
  const Frame image = decode_reply(out[0]);

  WorkerCore restored(config, 1, {});
  Frame restore;
  restore.type = FrameType::kRestore;
  restore.restore.image = image.image.image;
  out.clear();
  EXPECT_EQ(restored.on_frame(restore, out), WorkerCore::Action::kContinue);
  ASSERT_EQ(out.size(), 1u);
  const Frame result = decode_reply(out[0]);
  ASSERT_EQ(result.type, FrameType::kRestoreResult);
  EXPECT_TRUE(result.restore_result.ok);
  EXPECT_EQ(restored.applied_seq(), 2u);

  out.clear();
  restored.on_frame(batch_frame(second, 4, 950), out);
  out.clear();
  EXPECT_EQ(restored.on_frame(finish, out), WorkerCore::Action::kFinished);
  const Frame final_b = decode_reply(out[0]);

  EXPECT_TRUE(final_b.image.closed);
  EXPECT_EQ(final_b.image.applied_seq, final_a.image.applied_seq);
  // Equal states save to equal images: the recovered worker's final
  // checkpoint is byte-identical to the uninterrupted one's.
  EXPECT_EQ(final_b.image.image, final_a.image.image);
}

TEST(DistWorker, RestoreRefusesConfigFingerprintSkew) {
  // Image produced under a different engine configuration (session gap).
  auto other = two_shard_config();
  other.session_gap = 1234;
  WorkerCore producer(other, 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  producer.on_frame(batch_frame({conn(1, 3, 1000, 60)}, 1, 700), out);
  Frame request;
  request.type = FrameType::kCheckpointRequest;
  out.clear();
  producer.on_frame(request, out);
  const Frame image = decode_reply(out[0]);

  WorkerCore skewed(two_shard_config(), 1, {});
  Frame restore;
  restore.type = FrameType::kRestore;
  restore.restore.image = image.image.image;
  out.clear();
  EXPECT_EQ(skewed.on_frame(restore, out), WorkerCore::Action::kRefused);
  ASSERT_EQ(out.size(), 1u);
  const Frame result = decode_reply(out[0]);
  ASSERT_EQ(result.type, FrameType::kRestoreResult);
  EXPECT_FALSE(result.restore_result.ok);
  EXPECT_NE(result.restore_result.reason.find(
                cdr::name(cdr::FaultClass::kCheckpointMismatch)),
            std::string::npos)
      << result.restore_result.reason;
  // A refused worker integrated nothing.
  EXPECT_EQ(skewed.applied_seq(), 0u);
}

TEST(DistWorker, RestoreRefusesCheckpointVersionSkew) {
  WorkerCore producer(two_shard_config(), 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  producer.on_frame(batch_frame({conn(1, 3, 1000, 60)}, 1, 700), out);
  Frame request;
  request.type = FrameType::kCheckpointRequest;
  out.clear();
  producer.on_frame(request, out);
  Frame image = decode_reply(out[0]);

  // A supervisor from a different build: bump the CCKP version field (bytes
  // 4..8 of the image, little-endian).
  ASSERT_GE(image.image.image.size(), 8u);
  image.image.image[4] = static_cast<std::uint8_t>(
      stream::Checkpoint::kVersion + 1);

  WorkerCore restored(two_shard_config(), 1, {});
  Frame restore;
  restore.type = FrameType::kRestore;
  restore.restore.image = image.image.image;
  out.clear();
  EXPECT_EQ(restored.on_frame(restore, out), WorkerCore::Action::kRefused);
  const Frame result = decode_reply(out[0]);
  EXPECT_FALSE(result.restore_result.ok);
  EXPECT_NE(result.restore_result.reason.find(
                cdr::name(cdr::FaultClass::kCheckpointMismatch)),
            std::string::npos)
      << result.restore_result.reason;
  EXPECT_NE(result.restore_result.reason.find("version"), std::string::npos)
      << result.restore_result.reason;
}

TEST(DistWorker, RestoreRefusesARoutedTableOfTheWrongLength) {
  const auto config = two_shard_config();
  WorkerCore producer(config, 1, {});
  std::vector<std::vector<std::uint8_t>> out;
  producer.on_frame(batch_frame({conn(1, 3, 1000, 60)}, 1, 700), out);
  Frame request;
  request.type = FrameType::kCheckpointRequest;
  out.clear();
  producer.on_frame(request, out);
  const Frame reply = decode_reply(out[0]);

  // Same fingerprint and shard sections, but a routed_per_shard table one
  // entry too long: re-encoded, so every CRC is valid and only the shared
  // geometry check can catch it.
  cdr::IngestOptions options;
  options.mode = cdr::ParseMode::kLenient;
  cdr::IngestReport report;
  report.mode = cdr::ParseMode::kLenient;
  auto image = stream::decode(reply.image.image, options, report);
  ASSERT_TRUE(image.has_value());
  ASSERT_EQ(image->config, stream::fingerprint_of(config));
  image->producer.routed_per_shard.push_back(0);

  WorkerCore restored(config, 1, {});
  Frame restore;
  restore.type = FrameType::kRestore;
  restore.restore.image = stream::encode(*image);
  out.clear();
  EXPECT_EQ(restored.on_frame(restore, out), WorkerCore::Action::kRefused);
  ASSERT_EQ(out.size(), 1u);
  const Frame result = decode_reply(out[0]);
  ASSERT_EQ(result.type, FrameType::kRestoreResult);
  EXPECT_FALSE(result.restore_result.ok);
  EXPECT_NE(result.restore_result.reason.find(
                cdr::name(cdr::FaultClass::kCheckpointMismatch)),
            std::string::npos)
      << result.restore_result.reason;
  EXPECT_EQ(restored.applied_seq(), 0u);
}

TEST(DistWorker, CrashFaultFiresMidBatchWithNoReplies) {
  WorkerFault fault;
  fault.crash_after = 3;
  WorkerCore core(two_shard_config(), 1, fault);
  std::vector<std::vector<std::uint8_t>> out;
  const auto action = core.on_frame(
      batch_frame({conn(1, 3, 1000, 60), conn(3, 3, 1010, 60),
                   conn(5, 3, 1020, 60), conn(7, 3, 1030, 60)},
                  4, 800),
      out);
  EXPECT_EQ(action, WorkerCore::Action::kCrash);
  // The crash happened mid-batch: exactly crash_after records were applied
  // and no reply (not even the heartbeat) was emitted.
  EXPECT_EQ(core.applied_seq(), 3u);
  EXPECT_TRUE(out.empty());
}

TEST(DistWorker, HangFaultFiresByAppliedCount) {
  WorkerFault fault;
  fault.hang_after = 2;
  WorkerCore core(two_shard_config(), 1, fault);
  std::vector<std::vector<std::uint8_t>> out;
  const auto action = core.on_frame(
      batch_frame({conn(1, 3, 1000, 60), conn(3, 3, 1010, 60),
                   conn(5, 3, 1020, 60)},
                  3, 800),
      out);
  EXPECT_EQ(action, WorkerCore::Action::kHang);
  EXPECT_EQ(core.applied_seq(), 2u);
  EXPECT_TRUE(out.empty());
}

TEST(DistWorker, RouterDirectionFramesAreProtocolErrors) {
  WorkerCore core(two_shard_config(), 0, {});
  std::vector<std::vector<std::uint8_t>> out;
  for (const FrameType type :
       {FrameType::kHello, FrameType::kCheckpointImage,
        FrameType::kRestoreResult, FrameType::kHeartbeat}) {
    Frame frame;
    frame.type = type;
    EXPECT_EQ(core.on_frame(frame, out), WorkerCore::Action::kProtocolError);
  }
  // A batch after the stream closed is equally a router bug.
  Frame finish;
  finish.type = FrameType::kFinish;
  core.on_frame(finish, out);
  EXPECT_EQ(core.on_frame(batch_frame({conn(2, 1, 2000, 10)}, 1, 900), out),
            WorkerCore::Action::kProtocolError);
}

}  // namespace
}  // namespace ccms::dist
