// The dist wire protocol: length-prefixed, CRC-framed messages between the
// router/supervisor and its worker processes.
//
// Every message is one frame:
//
//   magic "CCWF" | u32 type | u64 payload_len | payload
//                | u32 crc32(type | payload_len | payload)
//
// The CRC covers the type and length fields as well as the payload, so a
// bit flip anywhere past the magic — including one that would silently
// re-type a frame — is a kChecksumMismatch, never a misparse. Each encoder
// writes the header, the payload fields and the CRC into one buffer and
// patches the length field afterwards, so no payload is copied twice.
//
// The framing mirrors the checkpoint image framing (stream/checkpoint.h),
// and the payloads reuse the engine's own types where state crosses the
// wire: kBatch's payload is the stream::Batch the Frontend cut, and
// kRestore and kCheckpointImage carry a complete stream::Checkpoint image,
// so worker state travels in the exact format the engine already knows how
// to fingerprint, validate and fuzz.
//
// Frame types (direction in parentheses):
//
//   kHello             (worker -> router)  protocol version, worker index,
//                                          spawn generation
//   kBatch             (router -> worker)  routed records + the watermark at
//                                          flush time; seq_of_last is the
//                                          per-worker routed sequence number
//                                          of the batch's final record
//   kCheckpointRequest (router -> worker)  serialize state now
//   kCheckpointImage   (worker -> router)  applied_seq + checkpoint image
//   kRestore           (router -> worker)  resume from this image
//   kRestoreResult     (worker -> router)  ok, or refusal reason
//                                          (fingerprint/version skew)
//   kHeartbeat         (worker -> router)  liveness + applied_seq
//   kFinish            (router -> worker)  end of stream: close operators,
//                                          reply with a final
//                                          kCheckpointImage and exit
//
// FrameDecoder reassembles frames from a byte stream under the §7
// Strict/Lenient discipline (DESIGN.md). A malformed frame — damaged magic
// (kBadHeader), lying length field (kTruncatedPayload), CRC failure
// (kChecksumMismatch), unknown type (kCheckpointMismatch) or a payload that
// does not parse as its type claims (kTruncatedPayload) — poisons the
// decoder: lenient mode accounts the fault in an IngestReport and reports
// kQuarantined from then on (the router quarantines the connection; a
// byte-stream with one bad frame has no trustworthy resync point); strict
// mode throws util::CsvError. Malformed input never crashes the router.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cdr/integrity.h"
#include "cdr/record.h"
#include "stream/checkpoint.h"
#include "stream/frontend.h"

namespace ccms::dist {

/// Bumped on any incompatible wire change; exchanged in kHello.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on a single frame's declared payload length. A length field
/// beyond this is a lie (kTruncatedPayload), not a reason to buffer forever.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameType : std::uint32_t {
  kHello = 1,
  kBatch = 2,
  kCheckpointRequest = 3,
  kCheckpointImage = 4,
  kRestore = 5,
  kRestoreResult = 6,
  kHeartbeat = 7,
  kFinish = 8,
};

struct HelloFrame {
  std::uint32_t protocol = kProtocolVersion;
  std::uint32_t worker = 0;
  std::uint32_t generation = 0;
};

/// kBatch's payload is the Frontend's batch as cut: seq_of_last is the
/// worker's routed seq of records.back(), watermark the producer watermark
/// at flush time.
using BatchFrame = stream::Batch;

struct CheckpointImageFrame {
  std::uint64_t applied_seq = 0;    ///< per-worker routed seq integrated
  bool closed = false;              ///< final image after kFinish
  std::vector<std::uint8_t> image;  ///< stream::encode() bytes
};

struct RestoreFrame {
  std::vector<std::uint8_t> image;  ///< stream::encode() bytes
};

struct RestoreResultFrame {
  bool ok = false;
  std::string reason;
};

struct HeartbeatFrame {
  std::uint64_t applied_seq = 0;
};

/// One reassembled, CRC-verified, payload-parsed frame. Only the member
/// matching `type` is meaningful.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  HelloFrame hello;
  BatchFrame batch;
  CheckpointImageFrame image;
  RestoreFrame restore;
  RestoreResultFrame restore_result;
  HeartbeatFrame heartbeat;
};

/// Frame encoders: complete frame bytes (magic + header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_batch(const BatchFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_request();
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_image(
    const CheckpointImageFrame& f);
/// The same frame as encode_checkpoint_image({applied_seq, closed,
/// stream::encode(image)}), with the image encoded straight into it.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_image(
    std::uint64_t applied_seq, bool closed, const stream::Checkpoint& image);
[[nodiscard]] std::vector<std::uint8_t> encode_restore(const RestoreFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_restore_result(
    const RestoreResultFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_heartbeat(
    const HeartbeatFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_finish();

/// Incremental frame reassembly + validation over a byte stream (see file
/// comment for the fault discipline).
class FrameDecoder {
 public:
  /// `options.mode` selects the fault discipline, `options.quarantine_cap`
  /// bounds the retained quarantine entries. Defaults to lenient.
  explicit FrameDecoder(cdr::IngestOptions options = lenient_options());

  /// Appends raw bytes from the peer.
  void feed(std::span<const std::uint8_t> bytes);

  enum class Status {
    kFrame,        ///< `out` holds the next frame
    kNeedMore,     ///< no complete frame buffered yet
    kQuarantined,  ///< the stream is poisoned; no further frames ever
  };

  /// Extracts the next validated frame.
  Status next(Frame& out);

  /// Fault accounting (lenient mode). byte_offset is the stream offset of
  /// the offending frame.
  [[nodiscard]] const cdr::IngestReport& report() const { return report_; }

  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet consumed as frames (a nonzero value at
  /// end-of-stream means the peer died mid-frame).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  [[nodiscard]] static cdr::IngestOptions lenient_options() {
    cdr::IngestOptions options;
    options.mode = cdr::ParseMode::kLenient;
    return options;
  }

 private:
  Status fault(cdr::FaultClass fault_class, const std::string& reason);

  cdr::IngestOptions options_;
  cdr::IngestReport report_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t stream_offset_ = 0;  ///< bytes consumed before buffer_[0]
  bool poisoned_ = false;
};

}  // namespace ccms::dist
