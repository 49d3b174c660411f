// dist wire protocol: every frame type round-trips through FrameDecoder,
// frames reassemble from arbitrary byte-stream fragmentation, and the
// decoder's accounting matches what crossed the wire.
#include "dist/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_helpers.h"

namespace ccms::dist {
namespace {

using test::conn;

void feed_all(FrameDecoder& decoder, const std::vector<std::uint8_t>& bytes) {
  decoder.feed(bytes);
}

Frame expect_one(FrameDecoder& decoder, FrameType type) {
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, type);
  return frame;
}

TEST(DistWire, HelloRoundTrip) {
  FrameDecoder decoder;
  feed_all(decoder, encode_hello({kProtocolVersion, 3, 7}));
  const Frame f = expect_one(decoder, FrameType::kHello);
  EXPECT_EQ(f.hello.protocol, kProtocolVersion);
  EXPECT_EQ(f.hello.worker, 3u);
  EXPECT_EQ(f.hello.generation, 7u);
  Frame extra;
  EXPECT_EQ(decoder.next(extra), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(DistWire, BatchRoundTripPreservesRecordsAndWatermark) {
  BatchFrame batch;
  batch.seq_of_last = 41;
  batch.watermark = 123456;
  batch.records = {conn(1, 10, 1000, 60), conn(2, 11, 1005, 90),
                   conn(3, 12, 1010, 1)};

  FrameDecoder decoder;
  feed_all(decoder, encode_batch(batch));
  const Frame f = expect_one(decoder, FrameType::kBatch);
  EXPECT_EQ(f.batch.seq_of_last, 41u);
  EXPECT_EQ(f.batch.watermark, 123456);
  ASSERT_EQ(f.batch.records.size(), 3u);
  EXPECT_EQ(f.batch.records[1].car.value, 2u);
  EXPECT_EQ(f.batch.records[1].cell.value, 11u);
  EXPECT_EQ(f.batch.records[1].start, 1005);
  EXPECT_EQ(f.batch.records[1].duration_s, 90);
}

TEST(DistWire, EmptyPayloadFramesRoundTrip) {
  FrameDecoder decoder;
  feed_all(decoder, encode_checkpoint_request());
  feed_all(decoder, encode_finish());
  expect_one(decoder, FrameType::kCheckpointRequest);
  expect_one(decoder, FrameType::kFinish);
}

TEST(DistWire, CheckpointImageAndRestoreCarryOpaqueBytes) {
  const std::vector<std::uint8_t> image = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};

  FrameDecoder decoder;
  feed_all(decoder, encode_checkpoint_image({77, true, image}));
  feed_all(decoder, encode_restore({image}));
  const Frame a = expect_one(decoder, FrameType::kCheckpointImage);
  EXPECT_EQ(a.image.applied_seq, 77u);
  EXPECT_TRUE(a.image.closed);
  EXPECT_EQ(a.image.image, image);
  const Frame b = expect_one(decoder, FrameType::kRestore);
  EXPECT_EQ(b.restore.image, image);
}

TEST(DistWire, RestoreResultAndHeartbeatRoundTrip) {
  FrameDecoder decoder;
  feed_all(decoder, encode_restore_result({false, "kCheckpointMismatch: no"}));
  feed_all(decoder, encode_heartbeat({991}));
  const Frame a = expect_one(decoder, FrameType::kRestoreResult);
  EXPECT_FALSE(a.restore_result.ok);
  EXPECT_EQ(a.restore_result.reason, "kCheckpointMismatch: no");
  const Frame b = expect_one(decoder, FrameType::kHeartbeat);
  EXPECT_EQ(b.heartbeat.applied_seq, 991u);
}

TEST(DistWire, ReassemblesFromSingleByteFragments) {
  BatchFrame batch;
  batch.seq_of_last = 5;
  batch.watermark = 500;
  batch.records = {conn(9, 4, 100, 30)};
  std::vector<std::uint8_t> stream = encode_heartbeat({1});
  const auto batch_bytes = encode_batch(batch);
  stream.insert(stream.end(), batch_bytes.begin(), batch_bytes.end());

  FrameDecoder decoder;
  int frames = 0;
  Frame frame;
  for (const std::uint8_t byte : stream) {
    decoder.feed(std::span(&byte, 1));
    while (decoder.next(frame) == FrameDecoder::Status::kFrame) {
      ++frames;
      if (frames == 1) {
        EXPECT_EQ(frame.type, FrameType::kHeartbeat);
      }
      if (frames == 2) {
        EXPECT_EQ(frame.type, FrameType::kBatch);
        ASSERT_EQ(frame.batch.records.size(), 1u);
        EXPECT_EQ(frame.batch.records[0].car.value, 9u);
      }
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_EQ(decoder.report().records_accepted, 2u);
}

TEST(DistWire, BufferedReportsBytesOfAPartialFrame) {
  const auto bytes = encode_heartbeat({12});
  FrameDecoder decoder;
  decoder.feed(std::span(bytes.data(), bytes.size() - 3));
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), bytes.size() - 3);
}

}  // namespace
}  // namespace ccms::dist
