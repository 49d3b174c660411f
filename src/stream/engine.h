// The sharded streaming engine.
//
// One ShardedEngine turns an arrival-ordered CDR feed into a continuously
// maintained study report:
//
//   push(record)                               [producer thread]
//     -> the Frontend (stream/frontend.h): exactly-once dedup, §3 clean
//        screen, watermark quarantine (never a silent drop), exact global
//        tallies, and batching per shard (car % shards)
//     -> each batch the Frontend cuts joins its shard's bounded queue
//   worker threads                             [one per shard]
//     -> reorder window + incremental operators (stream/operators.h)
//     -> supervised: an operator failure degrades (quarantines) the shard
//        instead of crashing the process; the engine counts what was lost
//   snapshot() / checkpoint()                  [any thread, any time]
//     -> every shard's worker, once the batches queued before the request
//        are applied, advances to the watermark and builds its own view /
//        writes its own framed checkpoint section, all shards at once; the
//        caller merges the views into a StreamReport directly comparable
//        to core::run_study over the same records / collects the sections
//        and the producer state into a Checkpoint (stream/checkpoint.h)
//   restore(checkpoint)                        [pristine engine]
//     -> resumes bit-exactly; with exactly_once on, replaying the feed from
//        its last acknowledged position converges to the same report
//
// Threading contract: push/finish must come from one producer thread.
// snapshot() and checkpoint() may be called from any thread at any moment —
// they serialise against the producer via an internal mutex. A shard's
// state is touched by its worker thread alone: snapshot, checkpoint, close
// and restore reach it as a task queued behind that shard's batches, so the
// queue's FIFO order is the drain. Backpressure is blocking: a full shard
// queue stalls push until the worker catches up.
//
// Lifecycle: after finish(), snapshot()/checkpoint() stay valid (they report
// the final state, still built on the parked workers, which exit only with
// the engine); push() is a defined, diagnosable error — it throws
// StreamStateError rather than corrupting the closed operators.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cdr/integrity.h"
#include "cdr/record.h"
#include "stream/checkpoint.h"
#include "stream/config.h"
#include "stream/frontend.h"
#include "stream/operators.h"
#include "stream/report.h"

namespace ccms::stream {

/// Thrown on lifecycle misuse that would otherwise corrupt engine state
/// silently: push() after finish(), restore() into a non-pristine engine,
/// checkpoint() of a degraded engine.
class StreamStateError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(StreamConfig config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Feeds one record in arrival order. May block on shard backpressure.
  /// Throws StreamStateError if the engine is already finished.
  void push(const cdr::Connection& c);

  /// Feeds a span of records in arrival order.
  void push(std::span<const cdr::Connection> records);

  /// End of stream: flushes every queue and closes all per-shard state
  /// (open sessions and runs are finalised). The workers stay parked for
  /// later snapshots and checkpoints. Idempotent.
  void finish();

  /// True once finish() ran; push() is an error from then on while
  /// snapshot()/checkpoint() keep reporting the final state.
  [[nodiscard]] bool finished() const;

  /// Merges the current state of every shard into one report. Before
  /// finish() this drains in-flight batches first, so the snapshot reflects
  /// every record pushed so far (watermark semantics still apply: records
  /// inside the out-of-order window are pending, not lost). Degraded shards
  /// are reported, not hidden: see StreamReport::degraded_shards /
  /// coverage_fraction. Callable from any thread.
  [[nodiscard]] StreamReport snapshot();

  /// Serializes the complete durable engine state after quiescing exactly
  /// like snapshot(). The image plus the feed replayed from the last
  /// acknowledged position reproduces the uninterrupted run bit for bit
  /// (DESIGN.md §11). Callable from any thread. Throws StreamStateError if
  /// any shard is degraded — a degraded engine has lost records and must not
  /// masquerade as a clean resume point.
  [[nodiscard]] Checkpoint checkpoint();

  /// Resumes from a checkpoint. Requires a pristine engine (no record ever
  /// pushed, not finished) whose config fingerprint matches the image; the
  /// loaded quarantine is re-capped to this engine's quarantine_cap. On a
  /// fingerprint mismatch: with `fault_report` non-null the fault is
  /// accounted there (FaultClass::kCheckpointMismatch) and restore returns
  /// false; with it null, util::CsvError is thrown. Misuse (non-pristine
  /// engine) throws StreamStateError.
  bool restore(const Checkpoint& checkpoint,
               cdr::IngestReport* fault_report = nullptr);

  /// Per-car acknowledgement cursor positions (ascending by car id): the
  /// replay position an at-least-once feed should rewind to. Empty unless
  /// config.exactly_once. Callable from any thread.
  [[nodiscard]] std::vector<AckCursor> ack_cursors() const;

  /// Current watermark (max start seen minus allowed lateness).
  [[nodiscard]] time::Seconds watermark() const;

  /// Records quarantined as too late so far.
  [[nodiscard]] std::uint64_t late_records() const;

  /// Re-delivered records dropped by the exactly-once cursors so far.
  [[nodiscard]] std::uint64_t replayed_records() const;

  /// The config as the Frontend clamped it.
  [[nodiscard]] const StreamConfig& config() const {
    return frontend_.config();
  }

 private:
  struct Shard;
  /// Work on one shard's state, run by that shard's worker.
  using Task = std::function<void(Shard&)>;

  /// One shard: its bounded batch queue, worker thread and state. Only the
  /// worker touches the state; everything else reaches it as a task, which
  /// the worker runs once the queue ahead of it is empty.
  struct Shard {
    explicit Shard(const StreamConfig& config, int index)
        : index(static_cast<std::size_t>(index)), state(config, index) {}

    const std::size_t index;

    std::mutex mutex;  ///< guards everything below up to `state`
    std::condition_variable ready;  ///< producer -> worker
    std::condition_variable done;   ///< worker -> producer: space, task done
    std::deque<Batch> queue;
    const Task* task = nullptr;  ///< pending task; reset once it ran
    std::exception_ptr task_error;  ///< what the last task threw, if any
    bool exit = false;  ///< the engine is going away: leave the loop
    /// Operator failure: shard quarantined. Written by the worker under
    /// the mutex; the worker may read them without it.
    bool degraded = false;
    std::string degraded_reason;  ///< what() of the first failure

    ShardState state;  ///< touched by the worker thread alone
    std::thread worker;
  };

  void worker_loop(Shard& shard);
  /// Applies one batch on the shard's worker; a degraded shard drops it.
  static void apply(Shard& shard, const Batch& batch);
  /// Quarantines the shard after an operator failure (worker thread).
  static void degrade(Shard& shard, const std::exception& failure);
  /// Runs task(shard) on every shard's worker, behind the batches queued
  /// before it, and waits for all of them; rethrows the exception of the
  /// lowest shard whose task threw.
  void on_every_shard(const Task& task);
  /// The quarantined shards, ascending by index, with their reasons.
  std::vector<DegradedShard> degraded_shards();
  /// Cuts shard `index`'s pending batch and queues it (blocking while the
  /// queue is full).
  void flush(std::size_t index);
  void flush_all();
  void finish_locked();
  StreamReport snapshot_locked();

  std::vector<std::unique_ptr<Shard>> shards_;
  bool finished_ = false;

  /// Serialises the producer-side state against snapshot()/checkpoint()
  /// calls from other threads. Workers never take it, so holding it while
  /// waiting on their tasks cannot deadlock.
  mutable std::mutex producer_mutex_;

  /// Producer-side stages 0-4: exact global accounting and batching
  /// (stream/frontend.h); mutated only under producer_mutex_ and
  /// single-threaded in the hot path, so bit-identical for every shard
  /// count — and shared verbatim with the distributed supervisor. Its
  /// config never changes after construction, so config() needs no lock.
  Frontend frontend_;
};

}  // namespace ccms::stream
