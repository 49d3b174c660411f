// Throughput bench of ccms::stream's sharded engine: one simulated feed
// replayed through 1/2/4/8 shards, reporting records/sec, wall time, peak
// RSS and the scaling curve, with a batch-parity cross-check on every run.
//
// Output: a human table on stdout and machine-readable BENCH_stream.json
// (see bench_json.h) in the working directory. Shard scaling is reported
// against the machine's actual core count — on a single-core host the
// multi-shard rows measure queueing overhead, not speedup, and the JSON
// records hardware_concurrency so downstream tooling can judge the curve.
//
// A second phase measures crash recovery: the same feed is replayed through
// a faults::FlakyFeed (seeded disconnects + reorder bursts) with periodic
// checkpoints, killed mid-stream, restored from the last checkpoint and
// replayed from that checkpoint's feed position. The phase times checkpoint()
// and restore(), records the encoded image size and the replay gap, verifies
// the recovered report is bitwise identical to an uninterrupted run, and
// writes BENCH_stream_recovery.json.
//
// A stage row times operator integration alone: one ShardState fed shard
// 0's Frontend batches on one thread, as a shard worker integrates them,
// then one snapshot() and one write_shard() of the result (the median of
// kStageRepeats passes). It lands in BENCH_stream.json as operator_stage.
//
// A third phase measures *distributed* recovery: the feed replayed through
// dist::DistEngine (one supervised worker process per shard), with one
// worker crashed mid-run and restarted from its rolling checkpoint. Each
// worker count contributes a row (records/s, restarts, recovery-gap
// records) to the dist_runs array of BENCH_stream_recovery.json, gated on
// bitwise parity with the in-process engine.
//
// Env overrides: CCMS_CARS (default 2500), CCMS_DAYS (default 28),
// CCMS_SEED, CCMS_BENCH_OUT (default BENCH_stream.json),
// CCMS_BENCH_RECOVERY_OUT (default BENCH_stream_recovery.json).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "cdr/clean.h"
#include "core/cell_sessions.h"
#include "dist/supervisor.h"
#include "core/connected_time.h"
#include "core/days_histogram.h"
#include "core/presence.h"
#include "faults/flaky_feed.h"
#include "sim/simulator.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/feed.h"
#include "stream/frontend.h"
#include "stream/operators.h"
#include "stream/report.h"

namespace {

using namespace ccms;

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

struct ShardRun {
  int shards = 0;
  double wall_s = 0;
  double records_per_s = 0;
  double speedup = 0;
  bool parity_ok = false;
  double p2_rel_error = 0;
};

struct StageRun {
  int shards = 0;
  std::uint64_t records = 0;  ///< records shard 0 integrated
  double integrate_ns_per_record = 0;
  double snapshot_ms = 0;
  double write_shard_ms = 0;
};

constexpr int kStageRepeats = 5;

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Operator integration at shard width: shard 0's batches, cut by the
/// producer's Frontend exactly as the engine cuts them, offered and
/// advanced through one ShardState on this thread.
StageRun run_operator_stage(const std::vector<cdr::Connection>& arrivals,
                            const stream::StreamConfig& config) {
  stream::Frontend frontend(config);
  std::vector<stream::Batch> batches;
  for (const cdr::Connection& c : arrivals) {
    if (const auto full = frontend.offer(c)) {
      stream::Batch batch = frontend.flush(*full);
      if (*full == 0) batches.push_back(std::move(batch));
    }
  }
  batches.push_back(frontend.flush(0));

  StageRun run;
  run.shards = frontend.config().shards;
  std::vector<double> integrate_ns;
  std::vector<double> snapshot_ms;
  std::vector<double> write_ms;
  for (int repeat = 0; repeat < kStageRepeats; ++repeat) {
    stream::ShardState shard(frontend.config(), 0);
    const bench::Stopwatch integrate_timer;
    for (const stream::Batch& batch : batches) {
      for (const cdr::Connection& c : batch.records) shard.offer(c);
      shard.advance(batch.watermark);
    }
    const double integrate_s = integrate_timer.seconds();
    const bench::Stopwatch snapshot_timer;
    const stream::ShardSnapshot snapshot = shard.snapshot();
    snapshot_ms.push_back(1e3 * snapshot_timer.seconds());
    const bench::Stopwatch write_timer;
    const std::vector<std::uint8_t> section = stream::write_shard(shard);
    write_ms.push_back(1e3 * write_timer.seconds());
    run.records = snapshot.records;
    integrate_ns.push_back(
        snapshot.records > 0
            ? 1e9 * integrate_s / static_cast<double>(snapshot.records)
            : 0);
  }
  run.integrate_ns_per_record = median_of(integrate_ns);
  run.snapshot_ms = median_of(snapshot_ms);
  run.write_shard_ms = median_of(write_ms);
  return run;
}

struct RecoveryRun {
  int shards = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< encoded size of the last image
  double checkpoint_wall_s_mean = 0;
  double restore_wall_s = 0;
  std::uint64_t kill_after = 0;         ///< deliveries before the kill
  std::uint64_t resume_position = 0;    ///< feed position of last checkpoint
  std::uint64_t replay_gap = 0;         ///< records re-processed after restore
  std::uint64_t records_replayed = 0;   ///< duplicates absorbed by cursors
  std::uint64_t feed_disconnects = 0;
  bool identical = false;
  std::string why;
};

struct DistRun {
  int workers = 0;
  double wall_s = 0;
  double records_per_s = 0;
  int restarts = 0;
  std::uint64_t kill_after_applied = 0;  ///< fault point (applied records)
  std::uint64_t recovery_gap_records = 0;  ///< gap-log records replayed
  std::uint64_t checkpoint_every = 0;
  bool identical = false;
  std::string why;
};

/// Replays the feed through a dist::DistEngine (one worker process per
/// shard), crashing one worker mid-run so the supervisor restarts it from
/// the last rolling checkpoint and replays the gap — then checks the
/// recovered report is bitwise identical to the in-process engine's.
DistRun run_dist_recovery(const cdr::Dataset& raw, int workers) {
  DistRun run;
  run.workers = workers;

  const stream::StreamConfig stream_config = stream::config_for(raw, workers);
  stream::ShardedEngine reference_engine(stream_config);
  stream::replay(raw, reference_engine);
  const stream::StreamReport reference = reference_engine.snapshot();

  dist::DistConfig config;
  config.stream = stream_config;
  config.checkpoint_every = 4096;
  run.checkpoint_every = config.checkpoint_every;
  // Kill worker 1 after roughly half its share of the feed.
  run.kill_after_applied = raw.size() / (2 * static_cast<unsigned>(workers));
  config.faults[1] = {.crash_after = run.kill_after_applied,
                      .hang_after = 0,
                      .generations = 1};

  const std::vector<cdr::Connection> arrivals = stream::arrival_order(raw);
  dist::DistEngine engine(config);
  const bench::Stopwatch timer;
  engine.push(std::span<const cdr::Connection>(arrivals));
  engine.finish();
  const stream::StreamReport report = engine.snapshot();
  run.wall_s = timer.seconds();
  run.records_per_s =
      run.wall_s > 0 ? static_cast<double>(raw.size()) / run.wall_s : 0;
  run.restarts = engine.restarts_total();
  run.recovery_gap_records = engine.gap_replayed_records();
  run.identical = stream::reports_identical(reference, report, &run.why);
  return run;
}

/// Kills an engine mid-feed (keeping only its last periodic checkpoint and
/// the feed position recorded with it, like a real upstream), restores a
/// fresh engine from the image and replays from that position — then checks
/// the result is bitwise identical to an engine that never died.
RecoveryRun run_recovery(const std::vector<cdr::Connection>& arrivals,
                         const stream::StreamConfig& config,
                         std::uint64_t feed_seed) {
  faults::FlakyFeedConfig feed_config;
  feed_config.disconnect_rate = 0.001;
  feed_config.reorder_rate = 0.02;
  feed_config.max_burst = 6;
  feed_config.lateness_budget = config.allowed_lateness;

  RecoveryRun run;
  run.shards = config.shards;

  // Transport-level ack cadence: disconnects replay from here. Decoupled
  // from the checkpoint cadence, which alone bounds where a *restore* may
  // resume (records acked past the checkpoint die with the process; records
  // checkpointed but re-delivered are absorbed by the cursors).
  constexpr std::size_t kAckInterval = 1024;
  const auto drain = [&](faults::FlakyFeed& feed, stream::ShardedEngine& to) {
    std::size_t since_ack = 0;
    while (!feed.exhausted()) {
      to.push(feed.next());
      if (++since_ack >= kAckInterval) {
        feed.ack();
        since_ack = 0;
      }
    }
  };

  // Reference: the same flaky feed drained by an engine that never dies.
  faults::FlakyFeed reference_feed(arrivals, feed_seed, feed_config);
  stream::ShardedEngine reference_engine(config);
  drain(reference_feed, reference_engine);
  reference_engine.finish();
  const stream::StreamReport reference = reference_engine.snapshot();

  // First life: checkpoint periodically; the feed position at the moment of
  // each checkpoint is the furthest a restore may resume from.
  run.kill_after = arrivals.size() * 3 / 5;
  const std::size_t checkpoint_every =
      std::max<std::size_t>(1, arrivals.size() / 8);
  faults::FlakyFeed first_feed(arrivals, feed_seed, feed_config);
  stream::ShardedEngine first(config);
  stream::Checkpoint saved;
  double checkpoint_wall_total = 0;
  std::size_t since_ack = 0;
  std::size_t since_checkpoint = 0;
  while (!first_feed.exhausted() && first_feed.delivered() < run.kill_after) {
    first.push(first_feed.next());
    if (++since_ack >= kAckInterval) {
      first_feed.ack();
      since_ack = 0;
    }
    if (++since_checkpoint >= checkpoint_every) {
      const bench::Stopwatch timer;
      saved = first.checkpoint();
      checkpoint_wall_total += timer.seconds();
      run.checkpoint_bytes = stream::encode(saved).size();
      ++run.checkpoints_taken;
      run.resume_position = first_feed.position();
      since_checkpoint = 0;
    }
  }
  run.checkpoint_wall_s_mean =
      run.checkpoints_taken > 0
          ? checkpoint_wall_total / static_cast<double>(run.checkpoints_taken)
          : 0;
  // A disconnect just before the kill can leave the cursor rewound behind
  // the checkpoint position, so clamp instead of underflowing.
  run.replay_gap = first_feed.position() > run.resume_position
                       ? first_feed.position() - run.resume_position
                       : 0;

  // Second life: fresh feed (same seed -> same base order) rewound to the
  // last checkpoint's position, fresh engine restored from the image.
  faults::FlakyFeed second_feed(arrivals, feed_seed, feed_config);
  second_feed.rewind_to(run.resume_position);
  stream::ShardedEngine second(config);
  if (run.checkpoints_taken > 0) {
    const bench::Stopwatch timer;
    if (!second.restore(saved)) {
      run.why = "restore() rejected its own checkpoint";
      return run;
    }
    run.restore_wall_s = timer.seconds();
  }
  drain(second_feed, second);
  second.finish();
  run.records_replayed = second.replayed_records();
  run.feed_disconnects = second_feed.disconnects();
  run.identical = stream::reports_identical(reference, second.snapshot(),
                                            &run.why);
  return run;
}

}  // namespace

int main() {
  sim::SimConfig config = sim::SimConfig::paper_default();
  config.fleet.size = env_int("CCMS_CARS", 2500);
  config.study_days = env_int("CCMS_DAYS", 28);
  config.seed = static_cast<std::uint64_t>(env_int("CCMS_SEED", 20170901));

  std::cerr << "[bench] simulating " << config.fleet.size << " cars x "
            << config.study_days << " days (seed " << config.seed << ")...\n";
  const sim::Study study = sim::simulate(config);
  const std::uint64_t records = study.raw.size();

  // Batch-side reference figures for the parity cross-check (the engine's
  // claim is "same numbers as run_study in one streaming pass").
  core::StudyReport batch;
  const cdr::Dataset cleaned = cdr::clean(study.raw, {}, batch.clean);
  batch.presence = core::analyze_presence(cleaned);
  batch.connected_time = core::analyze_connected_time(cleaned, 600);
  batch.days = core::analyze_days_on_network(cleaned);
  batch.cell_sessions = core::analyze_cell_sessions(cleaned, 600);

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "perf_stream: " << records << " records, "
            << config.fleet.size << " cars x " << config.study_days
            << " days, " << cores << " hardware threads\n";
  std::cout << "shards      wall_s    records/s   speedup   parity\n";

  std::vector<ShardRun> runs;
  for (const int shards : {1, 2, 4, 8}) {
    stream::ShardedEngine engine(stream::config_for(study.raw, shards));
    const bench::Stopwatch timer;
    stream::replay(study.raw, engine);
    const stream::StreamReport report = engine.snapshot();
    ShardRun run;
    run.shards = shards;
    run.wall_s = timer.seconds();
    run.records_per_s =
        run.wall_s > 0 ? static_cast<double>(records) / run.wall_s : 0;
    run.speedup = runs.empty() ? 1.0 : runs.front().wall_s / run.wall_s;
    const stream::ParityReport parity = stream::parity_against(report, batch);
    run.parity_ok = parity.pass();
    run.p2_rel_error = parity.p2_median_rel_error;
    runs.push_back(run);
    std::printf("%4d   %11.3f   %10.0f   %7.2fx   %s\n", run.shards,
                run.wall_s, run.records_per_s, run.speedup,
                run.parity_ok ? "ok" : "FAIL");
  }

  const StageRun stage = run_operator_stage(
      stream::arrival_order(study.raw), stream::config_for(study.raw, 4));
  std::printf(
      "\noperator stage: shard 0 of %d, %llu records, %.0f ns/record "
      "integrated, snapshot %.2f ms, write_shard %.2f ms\n",
      stage.shards, static_cast<unsigned long long>(stage.records),
      stage.integrate_ns_per_record, stage.snapshot_ms, stage.write_shard_ms);

  bench::JsonArray shard_rows;
  for (const ShardRun& run : runs) {
    // `threads` / `speedup_vs_1t` mirror BENCH_batch.json's row schema so
    // one consumer reads both curves; the historical keys stay alongside.
    shard_rows.push(bench::JsonObject()
                        .add("shards", run.shards)
                        .add("threads", run.shards)
                        .add("wall_s", run.wall_s)
                        .add("records_per_s", run.records_per_s)
                        .add("speedup_vs_1_shard", run.speedup)
                        .add("speedup_vs_1t", run.speedup)
                        .add("parity_ok", run.parity_ok)
                        .add("p2_median_rel_error", run.p2_rel_error)
                        .dump());
  }
  const std::string json =
      bench::JsonObject()
          .add("bench", "perf_stream")
          .add("records", records)
          .add("cars", config.fleet.size)
          .add("study_days", config.study_days)
          .add("seed", static_cast<std::int64_t>(config.seed))
          .add("hardware_concurrency", static_cast<int>(cores))
          .add("peak_rss_bytes", bench::peak_rss_bytes())
          .raw("shard_runs", shard_rows.dump())
          .raw("operator_stage",
               bench::JsonObject()
                   .add("shards", stage.shards)
                   .add("records", stage.records)
                   .add("integrate_ns_per_record",
                        stage.integrate_ns_per_record)
                   .add("snapshot_ms", stage.snapshot_ms)
                   .add("write_shard_ms", stage.write_shard_ms)
                   .dump())
          .dump();
  const char* out = std::getenv("CCMS_BENCH_OUT");
  bench::write_bench_json(out != nullptr ? out : "BENCH_stream.json", json);

  // ---- Recovery phase: flaky feed + periodic checkpoints + kill/restore.
  std::cout << "\nrecovery: flaky at-least-once feed, kill at 60%, restore "
               "from last checkpoint\n";
  stream::StreamConfig recovery_config = stream::config_for(study.raw, 4);
  recovery_config.exactly_once = true;
  const RecoveryRun recovery = run_recovery(
      stream::arrival_order(study.raw), recovery_config, config.seed ^ 0xF1AC);
  std::printf(
      "  checkpoints %llu (last %llu bytes, mean %.4fs)  restore %.4fs\n"
      "  replay gap %llu records, %llu duplicates absorbed, %llu disconnects"
      "  ->  %s\n",
      static_cast<unsigned long long>(recovery.checkpoints_taken),
      static_cast<unsigned long long>(recovery.checkpoint_bytes),
      recovery.checkpoint_wall_s_mean, recovery.restore_wall_s,
      static_cast<unsigned long long>(recovery.replay_gap),
      static_cast<unsigned long long>(recovery.records_replayed),
      static_cast<unsigned long long>(recovery.feed_disconnects),
      recovery.identical ? "identical" : "DIVERGED");

  // ---- Distributed recovery phase: worker processes, kill one mid-run.
  std::cout << "\ndistributed recovery: worker processes over sockets, "
               "worker 1 crashed mid-run, restarted from rolling checkpoint\n";
  std::cout << "workers     wall_s    records/s   restarts   gap_records   "
               "parity\n";
  std::vector<DistRun> dist_runs;
  for (const int workers : {2, 4}) {
    const DistRun run = run_dist_recovery(study.raw, workers);
    std::printf("%4d   %11.3f   %10.0f   %8d   %11llu   %s\n", run.workers,
                run.wall_s, run.records_per_s, run.restarts,
                static_cast<unsigned long long>(run.recovery_gap_records),
                run.identical ? "identical" : "DIVERGED");
    dist_runs.push_back(run);
  }

  bench::JsonArray dist_rows;
  for (const DistRun& run : dist_runs) {
    dist_rows.push(bench::JsonObject()
                       .add("workers", run.workers)
                       .add("wall_s", run.wall_s)
                       .add("records_per_s", run.records_per_s)
                       .add("restarts", run.restarts)
                       .add("kill_after_applied", run.kill_after_applied)
                       .add("recovery_gap_records", run.recovery_gap_records)
                       .add("checkpoint_every", run.checkpoint_every)
                       .add("recovery_identical", run.identical)
                       .dump());
  }

  const std::string recovery_json =
      bench::JsonObject()
          .add("bench", "perf_stream_recovery")
          .add("records", records)
          .add("cars", config.fleet.size)
          .add("study_days", config.study_days)
          .add("seed", static_cast<std::int64_t>(config.seed))
          .add("shards", recovery.shards)
          .add("checkpoints_taken", recovery.checkpoints_taken)
          .add("checkpoint_bytes", recovery.checkpoint_bytes)
          .add("checkpoint_wall_s_mean", recovery.checkpoint_wall_s_mean)
          .add("restore_wall_s", recovery.restore_wall_s)
          .add("kill_after_deliveries", recovery.kill_after)
          .add("resume_position", recovery.resume_position)
          .add("replay_gap_records", recovery.replay_gap)
          .add("records_replayed", recovery.records_replayed)
          .add("feed_disconnects", recovery.feed_disconnects)
          .add("recovery_identical", recovery.identical)
          .raw("dist_runs", dist_rows.dump())
          .dump();
  const char* recovery_out = std::getenv("CCMS_BENCH_RECOVERY_OUT");
  bench::write_bench_json(
      recovery_out != nullptr ? recovery_out : "BENCH_stream_recovery.json",
      recovery_json);

  bool ok = true;
  for (const ShardRun& run : runs) {
    if (!run.parity_ok) {
      std::cerr << "[bench] parity FAILED at " << run.shards << " shards\n";
      ok = false;
    }
  }
  if (!recovery.identical) {
    std::cerr << "[bench] recovery parity FAILED: " << recovery.why << "\n";
    ok = false;
  }
  for (const DistRun& run : dist_runs) {
    if (!run.identical) {
      std::cerr << "[bench] distributed recovery parity FAILED at "
                << run.workers << " workers: " << run.why << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
