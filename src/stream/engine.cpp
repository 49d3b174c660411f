#include "stream/engine.h"

#include <malloc.h>

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

ShardedEngine::~ShardedEngine() {
  finish();
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->exit = true;
    shard->ready.notify_one();
  }
  for (auto& shard : shards_) shard->worker.join();
  // The shard state is most of what an engine allocates. Free it here and
  // hand the heap's free pages back to the OS: glibc keeps freed pages
  // resident and may later place a large block on pages that were never
  // touched, so without the trim the footprint of a process that runs one
  // engine after another would depend on where the allocator put blocks
  // before (net/load.cpp releases its grids the same way).
  shards_.clear();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void ShardedEngine::worker_loop(Shard& shard) {
  std::unique_lock lock(shard.mutex);
  for (;;) {
    shard.ready.wait(lock, [&] {
      return !shard.queue.empty() || shard.task != nullptr || shard.exit;
    });
    if (!shard.queue.empty()) {
      Batch batch = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.done.notify_all();
      lock.unlock();
      apply(shard, batch);
      batch = {};  // frees the records outside the lock
      lock.lock();
    } else if (shard.task != nullptr) {
      // The queue is empty: every batch queued before the task is in.
      const Task& task = *shard.task;
      lock.unlock();
      std::exception_ptr error;
      try {
        task(shard);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      shard.task = nullptr;
      shard.task_error = error;
      shard.done.notify_all();
    } else {
      return;  // exit, with nothing left to run
    }
  }
}

void ShardedEngine::apply(Shard& shard, const Batch& batch) {
  // A degraded shard keeps draining its queue (so the producer never
  // deadlocks on backpressure) but applies nothing: its operators stay
  // consistent as of the record before the failure.
  if (shard.degraded) return;
  try {
    for (const cdr::Connection& c : batch.records) shard.state.offer(c);
    shard.state.advance(batch.watermark);
  } catch (const std::exception& e) {
    degrade(shard, e);
  }
}

void ShardedEngine::degrade(Shard& shard, const std::exception& failure) {
  std::lock_guard lock(shard.mutex);
  shard.degraded = true;
  shard.degraded_reason = failure.what();
}

void ShardedEngine::on_every_shard(const Task& task) {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->task = &task;
    shard->ready.notify_one();
  }
  std::exception_ptr error;
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->done.wait(lock, [&] { return shard->task == nullptr; });
    if (!error) error = std::exchange(shard->task_error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::vector<DegradedShard> ShardedEngine::degraded_shards() {
  std::vector<DegradedShard> degraded;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->degraded) {
      degraded.push_back({.shard = static_cast<int>(shard->index),
                          .reason = shard->degraded_reason});
    }
  }
  return degraded;
}

void ShardedEngine::flush(std::size_t index) {
  Batch batch = frontend_.flush(index);
  if (batch.records.empty()) return;

  Shard& shard = *shards_[index];
  std::unique_lock lock(shard.mutex);
  shard.done.wait(
      lock, [&] { return shard.queue.size() < config().queue_batches; });
  shard.queue.push_back(std::move(batch));
  shard.ready.notify_one();
}

void ShardedEngine::flush_all() {
  for (std::size_t i = 0; i < shards_.size(); ++i) flush(i);
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
  flush_all();
  on_every_shard([](Shard& shard) {
    if (shard.degraded) return;
    try {
      shard.state.close();
    } catch (const std::exception& e) {
      degrade(shard, e);
    }
  });
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
  const bool live = !finished_;
  if (live) flush_all();
  const time::Seconds watermark = frontend_.watermark();

  std::vector<ShardSnapshot> snapshots(shards_.size());
  on_every_shard([&](Shard& shard) {
    if (live && !shard.degraded) {
      // Everything pushed so far is in the shard; apply the current
      // watermark so the snapshot is watermark-consistent. An operator
      // failure here degrades the shard like one in a batch would.
      try {
        shard.state.advance(watermark);
      } catch (const std::exception& e) {
        degrade(shard, e);
      }
    }
    snapshots[shard.index] = shard.state.snapshot();
  });
  return merge_snapshots(frontend_, std::move(snapshots), degraded_shards());
}

Checkpoint ShardedEngine::checkpoint() {
  std::lock_guard lock(producer_mutex_);
  if (!finished_) flush_all();

  Checkpoint image = image_skeleton(config(), finished_);
  frontend_.save(image.producer);
  on_every_shard([&](Shard& shard) {
    if (!shard.degraded) image.shards[shard.index] = write_shard(shard.state);
  });
  if (const auto degraded = degraded_shards(); !degraded.empty()) {
    throw StreamStateError("ShardedEngine::checkpoint: shard " +
                           std::to_string(degraded.front().shard) +
                           " is degraded (" + degraded.front().reason +
                           "); a lossy state is not a resume point");
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
  if (const auto degraded = degraded_shards(); !degraded.empty()) {
    // A degraded engine has lost records; loading a clean image over it
    // would hide the loss behind healthy-looking counters.
    throw StreamStateError("ShardedEngine::restore: shard " +
                           std::to_string(degraded.front().shard) +
                           " is degraded (" + degraded.front().reason +
                           "); restore requires a pristine engine");
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

  on_every_shard([&](Shard& shard) {
    load_shard(checkpoint.shards[shard.index], shard.state);
  });

  // A finished checkpoint restores to a finished engine; the loaded shard
  // states are already closed, so finishing closes nothing.
  if (checkpoint.finished) finish_locked();
  return true;
}

}  // namespace ccms::stream
