#include "dist/wire.h"

#include <array>
#include <concepts>
#include <cstring>

#include "util/binio.h"
#include "util/csv.h"

namespace ccms::dist {

namespace {

using binio::Reader;
using binio::Writer;
using binio::crc32;

constexpr std::array<std::uint8_t, 4> kMagic = {'C', 'C', 'W', 'F'};
constexpr std::size_t kHeaderBytes = 16;  // magic + type + payload_len
constexpr std::size_t kCrcBytes = 4;

// Payload field lists: each frame type's layout once, for both its encoder
// (IO = Writer) and FrameDecoder::next (IO = Reader, which throws
// binio::Truncated on malformed input).

template <class IO, binio::Is<HelloFrame> F>
void fields(IO& io, F& f) {
  io.u32(f.protocol);
  io.u32(f.worker);
  io.u32(f.generation);
}

template <class IO, binio::Is<BatchFrame> F>
void fields(IO& io, F& f) {
  io.u64(f.seq_of_last);
  io.i64(f.watermark);
  io.seq(f.records, cdr::kConnectionBytes,
         [](auto& io, auto& c) { fields(io, c); });
}

/// A kCheckpointImage payload whose image a worker encodes straight into
/// the frame.
struct ImageInPlace {
  std::uint64_t applied_seq = 0;
  bool closed = false;
  const stream::Checkpoint& image;
};

void rest(Writer& w, std::span<const std::uint8_t> image) { w.rest(image); }
void rest(Reader& r, std::vector<std::uint8_t>& image) { r.rest(image); }
void rest(Writer& w, const stream::Checkpoint& image) {
  stream::encode(image, w.buffer());
}

template <class IO, class F>
  requires binio::Is<F, CheckpointImageFrame> ||
           std::same_as<F, const ImageInPlace>
void fields(IO& io, F& f) {
  io.u64(f.applied_seq);
  io.boolean(f.closed);
  rest(io, f.image);
}

template <class IO, binio::Is<RestoreFrame> F>
void fields(IO& io, F& f) {
  io.rest(f.image);
}

template <class IO, binio::Is<RestoreResultFrame> F>
void fields(IO& io, F& f) {
  io.boolean(f.ok);
  io.str(f.reason);
}

template <class IO, binio::Is<HeartbeatFrame> F>
void fields(IO& io, F& f) {
  io.u64(f.applied_seq);
}

/// A complete frame carrying `f`'s fields (no payload without `f`), written
/// into one buffer; `payload_bytes` is a capacity hint.
template <class... F>
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::size_t payload_bytes,
                                       const F&... f) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload_bytes + kCrcBytes);
  Writer w(out);
  w.bytes(kMagic);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(0);  // payload_len, patched below
  (fields(w, f), ...);
  const std::uint64_t len = out.size() - kHeaderBytes;
  for (std::size_t i = 0; i < 8; ++i) {  // little-endian, as Writer::u64
    out[kMagic.size() + 4 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  // The CRC spans type + length + payload (everything after the magic), so
  // no header bit flip can silently re-type or re-size a frame.
  w.u32(crc32(std::span(out).subspan(kMagic.size())));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  return encode_frame(FrameType::kHello, 12, f);
}

std::vector<std::uint8_t> encode_batch(const BatchFrame& f) {
  return encode_frame(FrameType::kBatch,
                      24 + cdr::kConnectionBytes * f.records.size(), f);
}

std::vector<std::uint8_t> encode_checkpoint_request() {
  return encode_frame(FrameType::kCheckpointRequest, 0);
}

std::vector<std::uint8_t> encode_checkpoint_image(
    const CheckpointImageFrame& f) {
  return encode_frame(FrameType::kCheckpointImage, 9 + f.image.size(), f);
}

std::vector<std::uint8_t> encode_checkpoint_image(
    std::uint64_t applied_seq, bool closed, const stream::Checkpoint& image) {
  // The hint covers the fields and the image's head; encode() makes room
  // for the shard sections and this frame's CRC once it reaches them.
  return encode_frame(FrameType::kCheckpointImage, 9 + 4096,
                      ImageInPlace{applied_seq, closed, image});
}

std::vector<std::uint8_t> encode_restore(const RestoreFrame& f) {
  return encode_frame(FrameType::kRestore, f.image.size(), f);
}

std::vector<std::uint8_t> encode_restore_result(const RestoreResultFrame& f) {
  return encode_frame(FrameType::kRestoreResult, 9 + f.reason.size(), f);
}

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatFrame& f) {
  return encode_frame(FrameType::kHeartbeat, 8, f);
}

std::vector<std::uint8_t> encode_finish() {
  return encode_frame(FrameType::kFinish, 0);
}

FrameDecoder::FrameDecoder(cdr::IngestOptions options) : options_(options) {
  report_.mode = options_.mode;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return;  // a quarantined stream buffers nothing further
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Status FrameDecoder::fault(cdr::FaultClass fault_class,
                                         const std::string& reason) {
  if (options_.mode == cdr::ParseMode::kStrict) {
    throw util::CsvError("wire: " + std::string(cdr::name(fault_class)) +
                         " at byte " + std::to_string(stream_offset_) + ": " +
                         reason);
  }
  poisoned_ = true;
  ++report_.records_dropped;
  report_.record_fault(options_.quarantine_cap, fault_class, stream_offset_,
                       reason);
  buffer_.clear();
  return Status::kQuarantined;
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (poisoned_) return Status::kQuarantined;
  if (buffer_.size() < kHeaderBytes) return Status::kNeedMore;

  if (std::memcmp(buffer_.data(), kMagic.data(), kMagic.size()) != 0) {
    return fault(cdr::FaultClass::kBadHeader,
                 "missing or damaged CCWF magic");
  }
  std::uint32_t raw_type = 0;
  std::uint64_t len = 0;
  Reader header{std::span(buffer_).subspan(4, 12)};
  header.u32(raw_type);
  header.u64(len);
  if (len > kMaxFramePayload) {
    return fault(cdr::FaultClass::kTruncatedPayload,
                 "declared payload length " + std::to_string(len) +
                     " exceeds the frame limit");
  }
  const std::size_t total =
      kHeaderBytes + static_cast<std::size_t>(len) + kCrcBytes;
  if (buffer_.size() < total) return Status::kNeedMore;

  const auto payload =
      std::span(buffer_).subspan(kHeaderBytes, static_cast<std::size_t>(len));
  const auto covered = std::span(buffer_).subspan(
      kMagic.size(), kHeaderBytes - kMagic.size() + static_cast<std::size_t>(len));
  std::uint32_t stored_crc = 0;
  Reader{std::span(buffer_).subspan(kHeaderBytes + static_cast<std::size_t>(len),
                                    kCrcBytes)}
      .u32(stored_crc);
  if (crc32(covered) != stored_crc) {
    return fault(cdr::FaultClass::kChecksumMismatch,
                 "frame CRC32 does not match its header and payload");
  }
  if (raw_type < static_cast<std::uint32_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint32_t>(FrameType::kFinish)) {
    return fault(cdr::FaultClass::kCheckpointMismatch,
                 "unknown frame type " + std::to_string(raw_type));
  }

  Frame parsed;
  parsed.type = static_cast<FrameType>(raw_type);
  try {
    Reader r(payload);
    switch (parsed.type) {
      case FrameType::kHello:
        fields(r, parsed.hello);
        break;
      case FrameType::kBatch:
        fields(r, parsed.batch);
        break;
      case FrameType::kCheckpointRequest:
      case FrameType::kFinish:
        break;  // no payload
      case FrameType::kCheckpointImage:
        fields(r, parsed.image);
        break;
      case FrameType::kRestore:
        fields(r, parsed.restore);
        break;
      case FrameType::kRestoreResult:
        fields(r, parsed.restore_result);
        break;
      case FrameType::kHeartbeat:
        fields(r, parsed.heartbeat);
        break;
    }
    if (r.remaining() != 0) {
      throw binio::Truncated{"payload carries " +
                             std::to_string(r.remaining()) +
                             " trailing bytes its type does not declare"};
    }
  } catch (const binio::Truncated& t) {
    return fault(cdr::FaultClass::kTruncatedPayload, t.reason);
  }

  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  stream_offset_ += total;
  ++report_.rows_read;
  ++report_.records_accepted;
  out = std::move(parsed);
  return Status::kFrame;
}

}  // namespace ccms::dist
