#include "dist/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>

#include "stream/checkpoint.h"

namespace ccms::dist {

WorkerCore::WorkerCore(const stream::StreamConfig& config, int worker,
                       const WorkerFault& fault)
    : config_(config), worker_(worker), fault_(fault),
      state_(config, worker) {}

std::vector<std::uint8_t> WorkerCore::heartbeat() const {
  return encode_heartbeat({applied_seq_});
}

std::vector<std::uint8_t> WorkerCore::checkpoint_image(bool closed) {
  // The wire image is a complete stream::Checkpoint so state crosses the
  // wire in the format the engine already fingerprints and fuzz-tests: all
  // N SHRD sections are present (empty except this worker's), and the
  // applied sequence travels durably inside the image as
  // producer.routed_per_shard[worker]. A supervisor restarting this worker
  // later hands the image straight back in a kRestore frame.
  stream::Checkpoint image = stream::image_skeleton(config_, closed);
  image.producer.routed_per_shard[static_cast<std::size_t>(worker_)] =
      applied_seq_;
  image.producer.routed = applied_seq_;
  image.shards[static_cast<std::size_t>(worker_)] = stream::write_shard(state_);
  return encode_checkpoint_image(applied_seq_, closed, image);
}

WorkerCore::Action WorkerCore::on_frame(
    const Frame& frame, std::vector<std::vector<std::uint8_t>>& out) {
  switch (frame.type) {
    case FrameType::kBatch: {
      if (closed_) return Action::kProtocolError;
      for (const cdr::Connection& c : frame.batch.records) {
        state_.offer(c);
        ++applied_seq_;
        // Injected faults fire on the applied-record count, not on time, so
        // the failure point is identical for every run of a seed.
        if (fault_.crash_after != 0 && applied_seq_ >= fault_.crash_after) {
          return Action::kCrash;
        }
        if (fault_.hang_after != 0 && applied_seq_ >= fault_.hang_after) {
          return Action::kHang;
        }
      }
      state_.advance(frame.batch.watermark);
      out.push_back(heartbeat());
      return Action::kContinue;
    }
    case FrameType::kCheckpointRequest:
      out.push_back(checkpoint_image(closed_));
      return Action::kContinue;
    case FrameType::kRestore: {
      cdr::IngestReport report;
      report.mode = cdr::ParseMode::kLenient;
      cdr::IngestOptions options;
      options.mode = cdr::ParseMode::kLenient;
      // The image's own section is read straight into the shard state.
      auto image =
          stream::decode(frame.restore.image, options, report, &state_);
      std::string refusal;
      if (!image.has_value()) {
        refusal = report.quarantine.empty()
                      ? "image does not decode"
                      : std::string(cdr::name(report.quarantine.front().fault)) +
                            ": " + report.quarantine.front().reason;
      } else if (!stream::image_fits(*image, config_)) {
        refusal = std::string(cdr::name(cdr::FaultClass::kCheckpointMismatch)) +
                  ": image fingerprint does not match this worker's "
                  "configuration";
      }
      if (!refusal.empty()) {
        // Refusing is the *clean* outcome of supervisor/worker skew: the
        // worker must not integrate records onto state it cannot verify,
        // so it drops whatever of the image it read.
        state_ = stream::ShardState(config_, worker_);
        out.push_back(encode_restore_result({false, refusal}));
        return Action::kRefused;
      }
      applied_seq_ =
          image->producer.routed_per_shard[static_cast<std::size_t>(worker_)];
      closed_ = image->finished;
      out.push_back(encode_restore_result({true, ""}));
      return Action::kContinue;
    }
    case FrameType::kFinish: {
      if (!closed_) {
        state_.close();
        closed_ = true;
      }
      out.push_back(checkpoint_image(/*closed=*/true));
      return Action::kFinished;
    }
    case FrameType::kHello:
    case FrameType::kCheckpointImage:
    case FrameType::kRestoreResult:
    case FrameType::kHeartbeat:
      return Action::kProtocolError;  // worker-to-router frames
  }
  return Action::kProtocolError;
}

namespace {

/// Writes everything or dies trying: a worker whose router hung up exits.
void write_all_or_exit(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      _exit(0);  // router gone; nothing left to serve
    }
    off += static_cast<std::size_t>(n);
  }
}

[[noreturn]] void hang_forever() {
  for (;;) pause();
}

}  // namespace

void worker_main(int router_fd, const stream::StreamConfig& config,
                 int worker, int generation, const WorkerOptions& options) {
  WorkerCore core(config, worker, options.fault);
  FrameDecoder decoder;
  std::vector<std::vector<std::uint8_t>> replies;

  write_all_or_exit(router_fd,
                    encode_hello({kProtocolVersion,
                                  static_cast<std::uint32_t>(worker),
                                  static_cast<std::uint32_t>(generation)}));

  std::uint8_t buf[64 * 1024];
  for (;;) {
    pollfd p{router_fd, POLLIN, 0};
    const int ready = poll(&p, 1, std::max(1, options.heartbeat_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      _exit(0);
    }
    if (ready == 0) {
      // Idle: prove liveness so the supervisor's deadline doesn't fire.
      write_all_or_exit(router_fd, core.heartbeat());
      continue;
    }
    if ((p.revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = read(router_fd, buf, sizeof buf);
      if (n == 0) _exit(0);  // router closed: orderly teardown
      if (n < 0) {
        if (errno == EINTR) continue;
        _exit(0);
      }
      decoder.feed(std::span(buf, static_cast<std::size_t>(n)));
      Frame frame;
      for (;;) {
        const auto status = decoder.next(frame);
        if (status == FrameDecoder::Status::kNeedMore) break;
        if (status == FrameDecoder::Status::kQuarantined) _exit(2);
        replies.clear();
        const auto action = core.on_frame(frame, replies);
        for (const auto& reply : replies) write_all_or_exit(router_fd, reply);
        switch (action) {
          case WorkerCore::Action::kContinue:
            break;
          case WorkerCore::Action::kFinished:
            _exit(0);
          case WorkerCore::Action::kCrash:
            _exit(1);
          case WorkerCore::Action::kHang:
            hang_forever();
          case WorkerCore::Action::kRefused:
            _exit(3);
          case WorkerCore::Action::kProtocolError:
            _exit(2);
        }
      }
    } else if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
      _exit(0);
    }
  }
}

}  // namespace ccms::dist
