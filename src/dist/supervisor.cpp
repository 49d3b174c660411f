#include "dist/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

namespace ccms::dist {

namespace {

using stream::StreamStateError;

constexpr int kPumpSliceMs = 10;

DistConfig normalized(DistConfig config) {
  config.max_restarts = std::max(0, config.max_restarts);
  config.checkpoint_every = std::max<std::uint64_t>(1, config.checkpoint_every);
  return config;
}

/// Runs fn(0) .. fn(n-1) at once: fn(0) on the caller, each other index
/// on a thread of its own. Every thread is joined before this returns, so
/// none is alive when spawn() next forks. Rethrows the exception of the
/// lowest index that threw, the one a loop over the indices would throw.
template <class Fn>
void run_at_once(std::size_t n, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t i = 1; i < n; ++i) threads.emplace_back(run, i);
  } catch (...) {
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  if (n > 0) run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void account_fault(cdr::IngestReport& report, std::size_t cap,
                   cdr::FaultClass fault, const std::string& reason) {
  ++report.records_dropped;
  report.record_fault(cap, fault, 0, reason);
}

}  // namespace

DistEngine::DistEngine(DistConfig config)
    : config_(normalized(std::move(config))), frontend_(config_.stream) {
  config_.stream = frontend_.config();  // the Frontend's clamp is the only one
  wire_report_.mode = cdr::ParseMode::kLenient;

  links_.reserve(static_cast<std::size_t>(config_.stream.shards));
  for (int i = 0; i < config_.stream.shards; ++i) {
    auto link = std::make_unique<Link>();
    link->worker = i;
    auto backoff_config = config_.backoff;
    // Decorrelate the workers' schedules: one seed per worker, derived
    // deterministically so a run still reproduces bit for bit.
    backoff_config.seed = config_.backoff.seed + static_cast<std::uint64_t>(i);
    link->backoff = util::Backoff(backoff_config);
    links_.push_back(std::move(link));
  }
  for (auto& link : links_) spawn(*link);
}

DistEngine::~DistEngine() {
  for (auto& link : links_) hang_up(*link);
}

void DistEngine::hang_up(Link& link) {
  if (link.fd >= 0) {
    close(link.fd);
    link.fd = -1;
  }
  if (link.pid > 0) {
    kill_hard(link.pid);
    link.pid = -1;
  }
  link.sendq.clear();
  link.sendq_off = 0;
}

void DistEngine::spawn(Link& link) {
  ++link.generation;
  WorkerOptions options;
  options.heartbeat_ms = config_.heartbeat_ms;
  if (const auto it = config_.faults.find(link.worker);
      it != config_.faults.end() && link.generation <= it->second.generations) {
    options.fault = it->second;
  }
  std::vector<int> sibling_fds;
  sibling_fds.reserve(links_.size());
  for (const auto& other : links_) {
    if (other && other->fd >= 0) sibling_fds.push_back(other->fd);
  }
  const SpawnedWorker spawned = spawn_worker(
      config_.stream, link.worker, link.generation, options, sibling_fds);
  link.pid = spawned.pid;
  link.fd = spawned.fd;
  fcntl(link.fd, F_SETFL, O_NONBLOCK);
  link.decoder = FrameDecoder();  // the send queue was emptied by hang_up
  link.image_requested = false;
  link.state = Link::State::kRunning;
  link.last_heard = Clock::now();
}

void DistEngine::push(const cdr::Connection& c) {
  if (finished_) {
    throw StreamStateError(
        "DistEngine::push after finish(): the stream is closed; "
        "snapshot()/checkpoint() remain valid");
  }
  if (const auto full = frontend_.offer(c)) flush_worker(*links_[*full]);
}

void DistEngine::push(std::span<const cdr::Connection> records) {
  for (const cdr::Connection& c : records) push(c);
}

void DistEngine::flush_worker(Link& link) {
  BatchFrame batch = frontend_.flush(static_cast<std::size_t>(link.worker));
  if (batch.records.empty()) return;
  link.routed_seq = batch.seq_of_last;
  // A lost shard's records stay routed (the frontend counted them); the
  // loss shows up in the merge as routed_per_shard - integrated.
  if (link.state == Link::State::kLost) return;

  link.gap.push_back(std::move(batch));
  if (link.state == Link::State::kRunning) {
    enqueue(link, encode_batch(link.gap.back()), /*bounded=*/true);
    if (link.routed_seq - link.image_seq >= config_.checkpoint_every &&
        !link.image_requested) {
      request_image(link);
    }
    pump(0);
  }
  // kBackoff: the batch sits in the gap log; restart_worker replays it.
}

void DistEngine::request_image(Link& link) {
  enqueue(link, encode_checkpoint_request(), /*bounded=*/false);
  link.image_requested = true;
}

void DistEngine::enqueue(Link& link, std::vector<std::uint8_t> frame_bytes,
                         bool bounded) {
  if (bounded) {
    // Backpressure: the per-worker frame queue is bounded like an
    // in-process shard queue. pump() keeps draining reads and deadline
    // checks while we wait, so a hung worker is killed (freeing the queue)
    // rather than wedging the producer forever.
    while (link.state == Link::State::kRunning &&
           link.sendq.size() >= config_.stream.queue_batches) {
      pump(kPumpSliceMs);
    }
  }
  if (link.state != Link::State::kRunning) return;
  link.sendq.push_back(std::move(frame_bytes));
}

void DistEngine::worker_died(Link& link, const std::string& why) {
  hang_up(link);
  link.image_requested = false;
  link.decoder = FrameDecoder();
  if (link.state != Link::State::kRunning) return;

  if (link.restarts >= config_.max_restarts) {
    mark_lost(link, "restart budget (" + std::to_string(config_.max_restarts) +
                        ") exhausted; last failure: " + why);
    return;
  }
  link.state = Link::State::kBackoff;
  link.restart_at =
      Clock::now() + std::chrono::milliseconds(link.backoff.next_ms());
}

void DistEngine::restart_worker(Link& link) {
  ++link.restarts;
  ++restarts_total_;
  spawn(link);
  if (!link.last_image.empty()) {
    enqueue(link, encode_restore({link.last_image}), /*bounded=*/false);
  }
  // Exactly-once replay of the gap: every batch routed after the image's
  // applied sequence, in the original order and under its original
  // flush-time watermark, so the restarted worker re-runs the identical
  // offer/advance sequence the dead one saw.
  for (const BatchFrame& batch : link.gap) {
    enqueue(link, encode_batch(batch), /*bounded=*/false);
    gap_replayed_ += batch.records.size();
  }
  if (link.routed_seq - link.image_seq >= config_.checkpoint_every) {
    request_image(link);
  }
  if (link.finish_sent) {
    enqueue(link, encode_finish(), /*bounded=*/false);
  }
}

void DistEngine::mark_lost(Link& link, const std::string& reason) {
  hang_up(link);
  link.state = Link::State::kLost;
  link.lost_reason = reason;
  link.gap.clear();
}

void DistEngine::handle_frame(Link& link, Frame& frame) {
  link.last_heard = Clock::now();
  switch (frame.type) {
    case FrameType::kHello:
      if (frame.hello.protocol != kProtocolVersion) {
        account_fault(wire_report_, config_.stream.quarantine_cap,
                      cdr::FaultClass::kCheckpointMismatch,
                      "worker speaks protocol " +
                          std::to_string(frame.hello.protocol) +
                          ", router speaks " +
                          std::to_string(kProtocolVersion));
        mark_lost(link, "wire protocol version skew");
      }
      break;
    case FrameType::kHeartbeat:
      break;  // last_heard refresh is the payload
    case FrameType::kCheckpointImage: {
      link.last_image = std::move(frame.image.image);
      link.image_seq = frame.image.applied_seq;
      link.image_closed = frame.image.closed;
      // Trim the gap log: every batch at or below the image's applied
      // sequence is durable in the image and will never be replayed.
      // Workers checkpoint only between batches, so the image never splits
      // a batch.
      while (!link.gap.empty() &&
             link.gap.front().seq_of_last <= link.image_seq) {
        link.gap.pop_front();
      }
      link.image_requested = false;
      if (frame.image.closed && link.finish_sent) {
        // Final image: the worker exits right after writing it.
        link.state = Link::State::kFinished;
        if (link.fd >= 0) {
          close(link.fd);
          link.fd = -1;
        }
        if (link.pid > 0) {
          reap(link.pid);
          link.pid = -1;
        }
      }
      break;
    }
    case FrameType::kRestoreResult:
      if (!frame.restore_result.ok) {
        // Fingerprint/version skew between supervisor and worker: the
        // worker refused cleanly (kCheckpointMismatch), and retrying the
        // same image would refuse again — the shard is lost, not retried.
        account_fault(wire_report_, config_.stream.quarantine_cap,
                      cdr::FaultClass::kCheckpointMismatch,
                      "worker " + std::to_string(link.worker) +
                          " refused restore: " + frame.restore_result.reason);
        mark_lost(link, "restore refused: " + frame.restore_result.reason);
      }
      break;
    case FrameType::kBatch:
    case FrameType::kCheckpointRequest:
    case FrameType::kRestore:
    case FrameType::kFinish:
      account_fault(wire_report_, config_.stream.quarantine_cap,
                    cdr::FaultClass::kCheckpointMismatch,
                    "worker " + std::to_string(link.worker) +
                        " sent a router-to-worker frame");
      worker_died(link, "protocol violation");
      break;
  }
}

void DistEngine::pump(int max_wait_ms) {
  std::vector<pollfd> fds;
  std::vector<Link*> polled;
  fds.reserve(links_.size());
  for (auto& link : links_) {
    if (link->state != Link::State::kRunning || link->fd < 0) continue;
    short events = POLLIN;
    if (!link->sendq.empty()) events |= POLLOUT;
    fds.push_back({link->fd, events, 0});
    polled.push_back(link.get());
  }

  // Never oversleep a supervision deadline: cap the poll timeout at the
  // nearest heartbeat deadline or scheduled restart.
  const auto now = Clock::now();
  int timeout = std::max(0, max_wait_ms);
  for (const auto& link : links_) {
    Clock::time_point deadline;
    if (link->state == Link::State::kRunning) {
      deadline =
          link->last_heard + std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    } else if (link->state == Link::State::kBackoff) {
      deadline = link->restart_at;
    } else {
      continue;
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
    timeout = std::min<int>(timeout,
                            static_cast<int>(std::clamp<long long>(ms, 0, 1000)));
  }

  if (!fds.empty()) {
    poll(fds.data(), fds.size(), timeout);
  } else if (timeout > 0) {
    poll(nullptr, 0, timeout);
  }

  for (std::size_t i = 0; i < fds.size(); ++i) {
    Link& link = *polled[i];
    if (link.state != Link::State::kRunning || link.fd != fds[i].fd) continue;

    if ((fds[i].revents & POLLOUT) != 0) {
      while (!link.sendq.empty()) {
        const auto& front = link.sendq.front();
        const ssize_t n =
            send(link.fd, front.data() + link.sendq_off,
                 front.size() - link.sendq_off, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          worker_died(link, "send failed: " + std::string(strerror(errno)));
          break;
        }
        link.sendq_off += static_cast<std::size_t>(n);
        if (link.sendq_off == front.size()) {
          link.sendq.pop_front();
          link.sendq_off = 0;
        }
      }
      if (link.state != Link::State::kRunning) continue;
    }

    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      bool eof = false;
      std::uint8_t buf[64 * 1024];
      for (;;) {
        const ssize_t n = read(link.fd, buf, sizeof buf);
        if (n > 0) {
          link.decoder.feed(std::span(buf, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) {
          eof = true;  // worker closed its end
        } else if (errno == EINTR) {
          continue;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          eof = true;  // hard error (ECONNRESET): same as a dead worker
        }
        break;
      }
      Frame frame;
      for (;;) {
        const auto status = link.decoder.next(frame);
        if (status == FrameDecoder::Status::kNeedMore) break;
        if (status == FrameDecoder::Status::kQuarantined) {
          // Malformed frame: the fault is accounted, the connection is
          // quarantined, and the worker is treated as failed. The router
          // itself never goes down with it.
          const auto& q = link.decoder.report().quarantine;
          account_fault(wire_report_, config_.stream.quarantine_cap,
                        q.empty() ? cdr::FaultClass::kBadHeader
                                  : q.front().fault,
                        "worker " + std::to_string(link.worker) +
                            " wire stream quarantined");
          worker_died(link, "wire stream quarantined");
          break;
        }
        handle_frame(link, frame);
        if (link.state != Link::State::kRunning) break;
      }
      if (eof && link.state == Link::State::kRunning) {
        worker_died(link, "worker exited unexpectedly");
      }
    }
  }

  // Deadlines: hung workers and due restarts.
  const auto after = Clock::now();
  for (auto& link : links_) {
    if (link->state == Link::State::kRunning) {
      if (after - link->last_heard >
          std::chrono::milliseconds(config_.heartbeat_timeout_ms)) {
        worker_died(*link, "heartbeat deadline exceeded (hung)");
      }
    } else if (link->state == Link::State::kBackoff) {
      if (after >= link->restart_at) restart_worker(*link);
    }
  }
}

void DistEngine::drain_images() {
  for (auto& link : links_) flush_worker(*link);
  for (;;) {
    bool settled = true;
    for (auto& link : links_) {
      switch (link->state) {
        case Link::State::kLost:
        case Link::State::kFinished:
          break;
        case Link::State::kBackoff:
          settled = false;
          break;
        case Link::State::kRunning:
          if (link->image_seq == link->routed_seq && link->sendq.empty() &&
              (!link->last_image.empty() || link->routed_seq == 0)) {
            break;
          }
          settled = false;
          if (!link->image_requested && link->sendq.empty() &&
              link->image_seq < link->routed_seq) {
            request_image(*link);
          }
          break;
      }
    }
    if (settled) return;
    pump(kPumpSliceMs);
  }
}

void DistEngine::finish() {
  if (finished_) return;
  for (auto& link : links_) {
    flush_worker(*link);
    link->finish_sent = true;
    if (link->state == Link::State::kRunning) {
      enqueue(*link, encode_finish(), /*bounded=*/false);
    }
  }
  for (;;) {
    bool settled = true;
    for (const auto& link : links_) {
      if (link->state == Link::State::kRunning ||
          link->state == Link::State::kBackoff) {
        settled = false;
        break;
      }
    }
    if (settled) break;
    pump(kPumpSliceMs);
  }
  finished_ = true;
}

std::optional<std::vector<std::uint8_t>> DistEngine::shard_image(
    const Link& link, stream::ShardState& state) const {
  if (link.last_image.empty()) return std::nullopt;
  cdr::IngestOptions options;
  options.mode = cdr::ParseMode::kLenient;
  cdr::IngestReport report;
  report.mode = cdr::ParseMode::kLenient;
  auto image = stream::decode(link.last_image, options, report, &state);
  const auto index = static_cast<std::size_t>(link.worker);
  if (!image.has_value() || image->shards.size() <= index) {
    state = stream::ShardState(config_.stream, link.worker);
    return std::nullopt;
  }
  return std::move(image->shards[index]);
}

stream::StreamReport DistEngine::snapshot() {
  if (!finished_) drain_images();

  // Each link's image decodes, loads, advances and snapshots on its own
  // thread; the merge below is the only step on the caller alone.
  const time::Seconds watermark = frontend_.watermark();
  std::vector<stream::ShardSnapshot> snapshots(links_.size());
  run_at_once(links_.size(), [&](std::size_t i) {
    const Link& link = *links_[i];
    stream::ShardState state(config_.stream, link.worker);
    (void)shard_image(link, state);
    if (!finished_ && link.state != Link::State::kLost && !link.image_closed) {
      // As in ShardedEngine::snapshot, a live, mid-run snapshot is
      // watermark-consistent. The worker's own state is untouched — this is
      // a scratch copy — which cannot diverge the final report because
      // integration order is globally sorted (DESIGN.md §14).
      state.advance(watermark);
    }
    snapshots[i] = state.snapshot();
  });

  std::vector<stream::DegradedShard> degraded;
  for (const auto& link : links_) {
    if (link->state == Link::State::kLost) {
      degraded.push_back({.shard = link->worker, .reason = link->lost_reason});
    }
  }
  return merge_snapshots(frontend_, std::move(snapshots), std::move(degraded));
}

stream::Checkpoint DistEngine::checkpoint() {
  for (const auto& link : links_) {
    if (link->state == Link::State::kLost) {
      throw StreamStateError("DistEngine::checkpoint: worker " +
                             std::to_string(link->worker) + " is lost (" +
                             link->lost_reason +
                             "); a lossy state is not a resume point");
    }
  }
  if (!finished_) drain_images();

  stream::Checkpoint image = stream::image_skeleton(config_.stream, finished_);
  frontend_.save(image.producer);
  run_at_once(links_.size(), [&](std::size_t i) {
    const Link& link = *links_[i];
    stream::ShardState state(config_.stream, link.worker);
    auto section = shard_image(link, state);
    // No image yet: what a fresh worker would write.
    image.shards[static_cast<std::size_t>(link.worker)] =
        section ? std::move(*section) : stream::write_shard(state);
  });
  return image;
}

std::vector<stream::AckCursor> DistEngine::ack_cursors() const {
  return frontend_.ack_cursors();
}

time::Seconds DistEngine::watermark() const { return frontend_.watermark(); }

std::uint64_t DistEngine::late_records() const { return frontend_.late(); }

std::uint64_t DistEngine::replayed_records() const {
  return frontend_.replayed();
}

int DistEngine::workers_lost() const {
  int lost = 0;
  for (const auto& link : links_) {
    if (link->state == Link::State::kLost) ++lost;
  }
  return lost;
}

}  // namespace ccms::dist
