#include "stream/engine.h"

#include <exception>
#include <string>
#include <utility>

#include "cdr/clean.h"
#include "util/csv.h"
#include "util/time.h"

namespace ccms::stream {

ShardedEngine::ShardedEngine(StreamConfig config) : frontend_(config) {
  const StreamConfig& clamped = frontend_.config();
  shards_.reserve(static_cast<std::size_t>(clamped.shards));
  for (int i = 0; i < clamped.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(clamped, i));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

ShardedEngine::~ShardedEngine() { finish(); }

void ShardedEngine::worker_loop(Shard& shard) {
  for (;;) {
    Batch batch;
    {
      std::unique_lock lock(shard.queue_mutex);
      shard.queue_ready.wait(
          lock, [&] { return !shard.queue.empty() || shard.closed; });
      if (shard.queue.empty()) break;  // closed and drained
      batch = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.in_flight = true;
      shard.queue_space.notify_all();
    }
    {
      std::lock_guard state_lock(shard.state_mutex);
      // A degraded shard keeps draining its queue (so the producer never
      // deadlocks on backpressure) but applies nothing: its operators stay
      // consistent as of the record before the failure.
      if (!shard.degraded) {
        try {
          for (const cdr::Connection& c : batch.records) shard.state.offer(c);
          shard.state.advance(batch.watermark);
        } catch (const std::exception& e) {
          shard.degraded = true;
          shard.degraded_reason = e.what();
        }
      }
    }
    {
      std::lock_guard lock(shard.queue_mutex);
      shard.in_flight = false;
      shard.queue_space.notify_all();
    }
  }
  std::lock_guard state_lock(shard.state_mutex);
  if (!shard.degraded) {
    try {
      shard.state.close();
    } catch (const std::exception& e) {
      shard.degraded = true;
      shard.degraded_reason = e.what();
    }
  }
}

void ShardedEngine::flush(std::size_t index) {
  Batch batch = frontend_.flush(index);
  if (batch.records.empty()) return;

  Shard& shard = *shards_[index];
  std::unique_lock lock(shard.queue_mutex);
  shard.queue_space.wait(
      lock, [&] { return shard.queue.size() < config().queue_batches; });
  shard.queue.push_back(std::move(batch));
  shard.queue_ready.notify_one();
}

void ShardedEngine::drain() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    flush(i);
    Shard& shard = *shards_[i];
    std::unique_lock lock(shard.queue_mutex);
    shard.queue_space.wait(
        lock, [&] { return shard.queue.empty() && !shard.in_flight; });
  }
}

void ShardedEngine::push(const cdr::Connection& c) {
  std::lock_guard lock(producer_mutex_);
  if (finished_) {
    throw StreamStateError(
        "ShardedEngine::push after finish(): the stream is closed; "
        "snapshot()/checkpoint() remain valid");
  }

  // Stages 0-4 (dedup, clean screen, watermark, global accounting,
  // batching) live in the shared Frontend; a full batch goes to its shard.
  if (const auto full = frontend_.offer(c)) flush(*full);
}

void ShardedEngine::push(std::span<const cdr::Connection> records) {
  for (const cdr::Connection& c : records) push(c);
}

void ShardedEngine::finish() {
  std::lock_guard lock(producer_mutex_);
  finish_locked();
}

void ShardedEngine::finish_locked() {
  if (finished_) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) flush(i);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->queue_mutex);
    shard->closed = true;
    shard->queue_ready.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  finished_ = true;
}

bool ShardedEngine::finished() const {
  std::lock_guard lock(producer_mutex_);
  return finished_;
}

time::Seconds ShardedEngine::watermark() const {
  std::lock_guard lock(producer_mutex_);
  return frontend_.watermark();
}

std::uint64_t ShardedEngine::late_records() const {
  std::lock_guard lock(producer_mutex_);
  return frontend_.late();
}

std::uint64_t ShardedEngine::replayed_records() const {
  std::lock_guard lock(producer_mutex_);
  return frontend_.replayed();
}

std::vector<AckCursor> ShardedEngine::ack_cursors() const {
  std::lock_guard lock(producer_mutex_);
  return frontend_.ack_cursors();
}

StreamReport ShardedEngine::snapshot() {
  std::lock_guard lock(producer_mutex_);
  return snapshot_locked();
}

StreamReport ShardedEngine::snapshot_locked() {
  if (!finished_) drain();

  std::vector<ShardSnapshot> snapshots;
  std::vector<DegradedShard> degraded;
  snapshots.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard state_lock(shard.state_mutex);
    if (!finished_ && !shard.degraded) {
      // Everything pushed so far is in the shard; apply the current
      // watermark so the snapshot is watermark-consistent. An operator
      // failure here degrades the shard like one in the worker would.
      try {
        shard.state.advance(frontend_.watermark());
      } catch (const std::exception& e) {
        shard.degraded = true;
        shard.degraded_reason = e.what();
      }
    }
    snapshots.push_back(shard.state.snapshot());
    if (shard.degraded) {
      degraded.push_back({.shard = static_cast<int>(i),
                          .reason = shard.degraded_reason});
    }
  }
  return merge_snapshots(frontend_, std::move(snapshots), std::move(degraded));
}

Checkpoint ShardedEngine::checkpoint() {
  std::lock_guard lock(producer_mutex_);
  if (!finished_) drain();

  Checkpoint image = image_skeleton(config(), finished_);
  frontend_.save(image.producer);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard state_lock(shard.state_mutex);
    if (shard.degraded) {
      throw StreamStateError("ShardedEngine::checkpoint: shard " +
                             std::to_string(i) + " is degraded (" +
                             shard.degraded_reason +
                             "); a lossy state is not a resume point");
    }
    shard.state.save(image.shards[i]);
  }
  return image;
}

bool ShardedEngine::restore(const Checkpoint& checkpoint,
                            cdr::IngestReport* fault_report) {
  std::lock_guard lock(producer_mutex_);
  if (finished_ || frontend_.offered() > 0) {
    throw StreamStateError(
        "ShardedEngine::restore requires a pristine engine (no record "
        "pushed, not finished)");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard state_lock(shards_[i]->state_mutex);
    if (shards_[i]->degraded) {
      // A degraded engine has lost records; loading a clean image over it
      // would hide the loss behind healthy-looking counters.
      throw StreamStateError("ShardedEngine::restore: shard " +
                             std::to_string(i) + " is degraded (" +
                             shards_[i]->degraded_reason +
                             "); restore requires a pristine engine");
    }
  }

  if (!image_fits(checkpoint, config())) {
    const std::string reason =
        "checkpoint fingerprint does not match the restoring engine's "
        "analytic configuration";
    if (fault_report == nullptr) {
      throw util::CsvError("checkpoint: " + reason);
    }
    ++fault_report->records_dropped;
    fault_report->record_fault(config().quarantine_cap,
                               cdr::FaultClass::kCheckpointMismatch, 0, reason);
    return false;
  }

  frontend_.load(checkpoint.producer);

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard state_lock(shard.state_mutex);
    shard.state.load(checkpoint.shards[i]);
  }

  // A finished checkpoint restores to a finished engine: join the (idle)
  // workers; the loaded shard states are already closed, so the close() at
  // worker exit is a no-op.
  if (checkpoint.finished) finish_locked();
  return true;
}

}  // namespace ccms::stream
