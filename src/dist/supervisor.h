// The dist supervisor: ShardedEngine's push/snapshot/checkpoint contract,
// served by worker *processes* under failure supervision.
//
// DistEngine keeps the producer frontend (stream/frontend.h) in-process —
// the single-threaded stages 0-4 that make every engine bitwise comparable,
// batching included — and ships each batch the frontend cuts over the wire
// protocol (dist/wire.h) to one worker process per shard (dist/worker.h).
// The gap log keeps those batches, so a replay resends the identical wire
// batches. Supervision makes failure a first-class path rather than an
// abort:
//
//   heartbeat deadlines   every frame from a worker refreshes its liveness;
//                         a worker silent past heartbeat_timeout_ms is
//                         declared hung and SIGKILLed (kRunning -> kDead)
//   rolling checkpoints   the router requests a checkpoint image every
//                         checkpoint_every routed records; the acknowledged
//                         image trims the in-memory gap log
//   restart + replay      a dead worker restarts from its last image after
//                         an exponential, jittered, seeded backoff delay
//                         (util::Backoff), then replays the gap log —
//                         records routed after the image — so every record
//                         is integrated exactly once (kDead -> kBackoff ->
//                         kRunning)
//   circuit breaker       after max_restarts failed generations the shard
//                         is marked lost (kLost): the engine keeps serving
//                         reports with the loss declared in degraded_shards
//                         / coverage_fraction, and conservation
//                         (routed == integrated + pending + lost) closes
//   restore refusal       a restarted worker that cannot verify its image
//                         (config-fingerprint or checkpoint-version skew)
//                         refuses with kCheckpointMismatch and the shard is
//                         marked lost immediately — skew must never
//                         silently diverge
//
// Because the frontend is shared code, the workers receive the very batches
// (records, boundaries, flush-time watermarks) an in-process engine's shard
// queues would, and replay-after-restart resends them unchanged, a
// DistEngine's final StreamReport is bitwise identical (reports_identical)
// to an in-process ShardedEngine over the same feed — including runs where
// workers were killed and recovered. Its checkpoint() starts from the same
// stream::image_skeleton and takes each worker's decoded shard image as is,
// so the two engines' images are byte-identical too. The argument lives in
// DESIGN.md §14.
//
// Threading contract: DistEngine is single-threaded — push/finish/snapshot/
// checkpoint all come from one caller thread. All socket I/O, deadline
// checks and restarts happen inside those calls (pump()); there are no
// background threads, which also makes fork-based spawning safe. The one
// fan-out is snapshot()/checkpoint() decoding the workers' images: one
// short-lived thread per link, all joined before the call returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdr/integrity.h"
#include "cdr/record.h"
#include "dist/process.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "stream/checkpoint.h"
#include "stream/config.h"
#include "stream/engine.h"
#include "stream/frontend.h"
#include "stream/report.h"
#include "util/backoff.h"

namespace ccms::dist {

struct DistConfig {
  /// Engine configuration; stream.shards is the worker process count. The
  /// engine keeps it as its Frontend clamped it.
  stream::StreamConfig stream;

  /// Worker idle heartbeat interval.
  int heartbeat_ms = 20;
  /// A worker silent this long is declared hung and killed. Generous by
  /// default: a spurious kill only costs a restart (the report is identical
  /// either way), but sanitizer builds should not churn.
  int heartbeat_timeout_ms = 2000;
  /// Restart budget per worker before its shard is declared lost.
  int max_restarts = 3;
  /// Restart delay schedule (exponential + decorrelated jitter, seeded).
  util::BackoffConfig backoff{.base_ms = 5, .cap_ms = 250, .seed = 1};
  /// Routed records per worker between rolling checkpoint requests.
  std::uint64_t checkpoint_every = 4096;

  /// Deterministic fault injection, keyed by worker index (test/bench).
  std::map<int, WorkerFault> faults;
};

class DistEngine {
 public:
  explicit DistEngine(DistConfig config);
  ~DistEngine();

  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  /// Feeds one record in arrival order. May block on a worker's bounded
  /// frame queue (backpressure). Throws StreamStateError after finish().
  void push(const cdr::Connection& c);
  void push(std::span<const cdr::Connection> records);

  /// End of stream: flushes every queue, collects each worker's final
  /// closed image (restarting workers that die on the way out, within
  /// budget) and reaps the processes. Idempotent.
  void finish();

  [[nodiscard]] bool finished() const { return finished_; }

  /// Merges the current state of every worker into one report, exactly like
  /// ShardedEngine::snapshot(): drains in-flight frames, requests
  /// up-to-date images, and reports lost shards as degraded rather than
  /// hiding them.
  [[nodiscard]] stream::StreamReport snapshot();

  /// Composes the complete durable engine image from the frontend plus
  /// every worker's current image. The result is restorable by
  /// ShardedEngine::restore (same format, same fingerprint). Throws
  /// StreamStateError if any shard is lost.
  [[nodiscard]] stream::Checkpoint checkpoint();

  /// Frontend passthroughs (same meaning as ShardedEngine).
  [[nodiscard]] std::vector<stream::AckCursor> ack_cursors() const;
  [[nodiscard]] time::Seconds watermark() const;
  [[nodiscard]] std::uint64_t late_records() const;
  [[nodiscard]] std::uint64_t replayed_records() const;

  /// Supervision telemetry.
  [[nodiscard]] int restarts_total() const { return restarts_total_; }
  [[nodiscard]] int workers_lost() const;
  /// Records replayed to restarted workers from gap logs (recovery volume).
  [[nodiscard]] std::uint64_t gap_replayed_records() const {
    return gap_replayed_;
  }
  /// Wire-level faults seen across all worker connections (malformed
  /// frames, image skew). Kept separate from the analytic report so a
  /// recovered run stays bitwise comparable to an uninterrupted one.
  [[nodiscard]] const cdr::IngestReport& wire_report() const {
    return wire_report_;
  }

  [[nodiscard]] const DistConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Link {
    enum class State { kRunning, kBackoff, kLost, kFinished };
    State state = State::kRunning;
    int worker = 0;
    pid_t pid = -1;
    int fd = -1;
    int generation = 0;
    FrameDecoder decoder;

    /// Gap log: the wire batches routed after the last acknowledged image,
    /// in order. Each keeps its original flush-time watermark, so a
    /// restarted worker re-runs the *identical* offer/advance sequence —
    /// replaying under a later watermark could integrate late records in a
    /// different order and diverge the report. Workers answer a checkpoint
    /// request only between batches, so an image's applied_seq always lands
    /// on a batch boundary and the log trims whole batches.
    std::deque<BatchFrame> gap;
    std::uint64_t routed_seq = 0;     ///< seq_of_last of the last batch cut
    std::uint64_t image_seq = 0;      ///< applied_seq of last_image
    std::vector<std::uint8_t> last_image;  ///< empty = no image yet
    bool image_closed = false;

    std::deque<std::vector<std::uint8_t>> sendq;  ///< bounded frame queue
    std::size_t sendq_off = 0;  ///< partial-write offset into sendq.front()

    Clock::time_point last_heard;
    Clock::time_point restart_at;
    util::Backoff backoff;
    int restarts = 0;
    bool image_requested = false;
    bool finish_sent = false;
    std::string lost_reason;
  };

  void spawn(Link& link);
  /// Closes the link's socket, SIGKILLs and reaps its worker, and drops
  /// its unsent frames.
  void hang_up(Link& link);
  /// Cuts the link's pending batch in the Frontend and ships it.
  void flush_worker(Link& link);
  void enqueue(Link& link, std::vector<std::uint8_t> frame_bytes,
               bool bounded);
  void request_image(Link& link);
  void pump(int max_wait_ms);
  void handle_frame(Link& link, Frame& frame);
  void worker_died(Link& link, const std::string& why);
  void restart_worker(Link& link);
  void mark_lost(Link& link, const std::string& reason);
  void drain_images();
  /// The link's own framed shard section out of its last checkpoint image,
  /// read into `state` (built for the link's shard) as the image decodes:
  /// one parse. Before the first image, or if it does not decode, nullopt
  /// with `state` a fresh shard.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> shard_image(
      const Link& link, stream::ShardState& state) const;

  DistConfig config_;
  stream::Frontend frontend_;
  std::vector<std::unique_ptr<Link>> links_;
  bool finished_ = false;
  int restarts_total_ = 0;
  std::uint64_t gap_replayed_ = 0;
  cdr::IngestReport wire_report_;
};

}  // namespace ccms::dist
