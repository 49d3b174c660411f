#include "harness/runner.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cdr/clean.h"
#include "cdr/io.h"
#include "cdr/session.h"
#include "dist/supervisor.h"
#include "core/cell_sessions.h"
#include "core/connected_time.h"
#include "core/days_histogram.h"
#include "core/load_view.h"
#include "core/presence.h"
#include "core/study.h"
#include "core/usage_matrix.h"
#include "faults/fault_injector.h"
#include "faults/flaky_feed.h"
#include "sim/simulator.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/feed.h"
#include "stream/report.h"
#include "util/json.h"

namespace ccms::harness {
namespace {

template <typename... Parts>
std::string cat(Parts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Ack cadence for at-least-once feeds — the same interval the recovery
/// tests use. Any cadence converges to the same report (FlakyFeed's base
/// order is fixed); it only shapes how much duplicate re-delivery the
/// exactly-once cursors must absorb.
constexpr std::size_t kAckInterval = 64;

sim::SimConfig sim_config_for(const Scenario& scenario, std::uint64_t seed) {
  sim::SimConfig config = scenario.workload.pristine
                              ? sim::SimConfig::pristine()
                              : sim::SimConfig::quick();
  config.seed = seed;
  config.fleet.size = scenario.workload.cars;
  config.study_days = scenario.workload.days;
  config.topology.grid_width = scenario.workload.grid;
  config.topology.grid_height = scenario.workload.grid;
  return config;
}

enum class FeedKind { kFlaky, kJitter, kDuplicate, kPlain };

FeedKind feed_kind(const FaultPlan& faults) {
  if (faults.disconnect_rate > 0 || faults.reorder_rate > 0)
    return FeedKind::kFlaky;
  if (faults.feed_late_rate > 0 || faults.feed_max_delay > 0)
    return FeedKind::kJitter;
  if (faults.duplicate_factor > 1) return FeedKind::kDuplicate;
  return FeedKind::kPlain;
}

/// The fully materialized delivery plan: everything about the feed that is
/// fixed before the engine runs. For flaky feeds the concrete sequence is
/// produced by FlakyFeed per run (deterministic per seed); for the others
/// `sequence` is the exact push order.
struct DeliveryPlan {
  FeedKind kind = FeedKind::kPlain;
  std::vector<cdr::Connection> arrivals;  ///< canonical arrival order
  std::vector<cdr::Connection> sequence;  ///< push order (empty for flaky)
  std::vector<cdr::Connection> late;      ///< provably-late set (jitter)
  std::uint64_t planned_duplicates = 0;   ///< duplicate-flood re-deliveries
};

DeliveryPlan make_plan(const Scenario& scenario, std::uint64_t seed,
                       const stream::StreamConfig& config,
                       std::vector<cdr::Connection> arrivals) {
  DeliveryPlan plan;
  plan.kind = feed_kind(scenario.faults);
  plan.arrivals = std::move(arrivals);
  switch (plan.kind) {
    case FeedKind::kFlaky:
      break;  // sequence comes from FlakyFeed, seeded per run
    case FeedKind::kJitter: {
      // jitter_feed wants a start-sorted feed; arrival_order provides one.
      // The jitter is told the engine's clean-screen thresholds: even a
      // pristine trace can hold a natural 3600 s artifact, which must be
      // neither flagged late nor relied on as a watermark witness.
      faults::FaultInjector injector(seed ^ 0x1177u, {});
      faults::FaultInjector::FeedJitter jitter;
      if (scenario.faults.feed_max_delay > 0)
        jitter.max_delay = scenario.faults.feed_max_delay;
      jitter.late_rate = scenario.faults.feed_late_rate;
      jitter.allowed_lateness = scenario.allowed_lateness;
      jitter.artifact_duration_s = config.clean.artifact_duration_s;
      jitter.max_plausible_duration_s = config.clean.max_plausible_duration_s;
      auto jittered = injector.jitter_feed(plan.arrivals, jitter);
      plan.sequence = std::move(jittered.arrivals);
      plan.late = std::move(jittered.late);
      break;
    }
    case FeedKind::kDuplicate: {
      const int factor = scenario.faults.duplicate_factor;
      plan.sequence.reserve(plan.arrivals.size() *
                            static_cast<std::size_t>(factor));
      for (const cdr::Connection& c : plan.arrivals) {
        for (int k = 0; k < factor; ++k) plan.sequence.push_back(c);
      }
      plan.planned_duplicates =
          plan.arrivals.size() * static_cast<std::uint64_t>(factor - 1);
      break;
    }
    case FeedKind::kPlain:
      plan.sequence = plan.arrivals;
      break;
  }
  return plan;
}

faults::FlakyFeedConfig flaky_config(const Scenario& scenario) {
  faults::FlakyFeedConfig config;
  config.disconnect_rate = scenario.faults.disconnect_rate;
  config.reorder_rate = scenario.faults.reorder_rate;
  config.max_burst = 6;
  config.lateness_budget = scenario.allowed_lateness;
  return config;
}

/// The one at-least-once delivery loop: pushes `feed` into `sink` until it
/// is exhausted or has delivered `stop_after` records, acking every
/// kAckInterval deliveries. No final ack — a killed first life's acked() is
/// its resume point, so each caller makes that choice itself.
template <class Sink>
void pump(faults::FlakyFeed& feed, Sink&& sink,
          std::uint64_t stop_after = std::numeric_limits<std::uint64_t>::max()) {
  std::size_t since_ack = 0;
  while (!feed.exhausted() && feed.delivered() < stop_after) {
    sink(feed.next());
    if (++since_ack >= kAckInterval) {
      feed.ack();
      since_ack = 0;
    }
  }
}

/// Delivers the whole plan into `sink` — a fresh FlakyFeed acked through to
/// the end for flaky plans, the fixed sequence otherwise — and returns the
/// known re-deliveries among the pushes.
template <class Sink>
std::uint64_t deliver_plan(const Scenario& scenario, const DeliveryPlan& plan,
                           std::uint64_t feed_seed, Sink&& sink) {
  if (plan.kind != FeedKind::kFlaky) {
    for (const cdr::Connection& c : plan.sequence) sink(c);
    return plan.planned_duplicates;
  }
  faults::FlakyFeed feed(plan.arrivals, feed_seed, flaky_config(scenario));
  pump(feed, sink);
  feed.ack();
  return feed.duplicates();
}

/// Engine config for the scenario. The operator hook (when the plan kills a
/// shard) counts integrations on the target shard with a counter fresh per
/// engine, so reruns die at exactly the same record.
stream::StreamConfig stream_config_for(const Scenario& scenario,
                                       const cdr::Dataset& raw) {
  stream::StreamConfig config = stream::config_for(raw, scenario.shards);
  config.allowed_lateness = scenario.allowed_lateness;
  config.exactly_once = scenario.exactly_once;
  config.quarantine_cap = scenario.faults.quarantine_cap;
  config.queue_batches = scenario.faults.queue_batches;
  config.batch_records = scenario.faults.batch_records;
  return config;
}

void attach_kill_hook(const Scenario& scenario, stream::StreamConfig& config) {
  if (scenario.faults.kill_shard < 0) return;
  const int target = scenario.faults.kill_shard;
  const std::uint64_t after = scenario.faults.kill_shard_after;
  auto integrated = std::make_shared<std::atomic<std::uint64_t>>(0);
  config.operator_hook = [target, after, integrated](int shard,
                                                     const cdr::Connection&) {
    if (shard != target) return;
    if (integrated->fetch_add(1, std::memory_order_relaxed) >= after) {
      throw std::runtime_error("harness: injected shard death");
    }
  };
}

std::uint64_t degraded_lost(const stream::StreamReport& report) {
  std::uint64_t lost = 0;
  for (const stream::DegradedShard& d : report.degraded_shards) {
    lost += d.records_lost;
  }
  return lost;
}

void check_conservation_routed(Checker& checker, const char* stage,
                               const stream::StreamReport& report) {
  const std::uint64_t lost = degraded_lost(report);
  const std::uint64_t accounted = report.engine.records_integrated +
                                  report.engine.reorder_pending + lost;
  checker.check("conservation-routed", stage,
                report.engine.records_routed == accounted,
                cat("routed=", report.engine.records_routed,
                    " integrated=", report.engine.records_integrated,
                    " pending=", report.engine.reorder_pending,
                    " lost=", lost));
}

/// One full stream run: builds the feed per plan, drives the engine to
/// exhaustion and finish(), taking quartile snapshots for the mid-run
/// conservation / watermark checks when `checker` is set (nullptr for the
/// determinism rerun, which must only observe the final report).
struct DriveResult {
  stream::StreamReport report;
  std::uint64_t presented = 0;   ///< deliveries the feed claims it made
  std::uint64_t duplicates = 0;  ///< known re-deliveries among them
};

DriveResult run_stream_once(const Scenario& scenario, const DeliveryPlan& plan,
                            const stream::StreamConfig& base_config,
                            std::uint64_t feed_seed, Checker* checker) {
  stream::StreamConfig config = base_config;
  attach_kill_hook(scenario, config);
  stream::ShardedEngine engine(config);
  DriveResult out;

  const std::size_t total = plan.kind == FeedKind::kFlaky
                                ? plan.arrivals.size()
                                : plan.sequence.size();
  // The sabotage knob silently skips this delivery while still counting it
  // as presented — the planted violation of conservation-presented.
  const std::size_t sabotage_index =
      scenario.faults.sabotage_drop && total > 0
          ? total / 2
          : static_cast<std::size_t>(-1);
  const std::size_t snapshot_every = total >= 4 ? total / 4 : total + 1;

  std::vector<time::Seconds> watermarks;
  auto deliver = [&](const cdr::Connection& c) {
    const std::size_t index = out.presented++;
    if (index != sabotage_index) engine.push(c);
    if (checker != nullptr && out.presented % snapshot_every == 0 &&
        out.presented < total) {
      const stream::StreamReport snap = engine.snapshot();
      watermarks.push_back(snap.engine.watermark);
      check_conservation_routed(*checker, "stream", snap);
    }
  };

  out.duplicates = deliver_plan(scenario, plan, feed_seed, deliver);
  engine.finish();

  if (checker != nullptr && scenario.expect_degraded) {
    // A degraded engine must refuse to pose as a clean resume point.
    bool refused = false;
    try {
      (void)engine.checkpoint();
    } catch (const stream::StreamStateError&) {
      refused = true;
    }
    checker->check("coverage-accounting", "stream", refused,
                   "degraded engine must refuse checkpoint()");
  }

  out.report = engine.snapshot();
  watermarks.push_back(out.report.engine.watermark);
  if (checker != nullptr) {
    check_conservation_routed(*checker, "stream", out.report);
    bool monotone = true;
    for (std::size_t i = 1; i < watermarks.size(); ++i) {
      monotone = monotone && watermarks[i - 1] <= watermarks[i];
    }
    std::ostringstream seq;
    for (const time::Seconds w : watermarks) seq << w << " ";
    checker->check("watermark-monotone", "stream", monotone,
                   cat("snapshots=", seq.str()));
  }

  if (checker != nullptr && scenario.check_checkpoint_idempotence &&
      out.report.degraded_shards.empty() && scenario.faults.kill_shard < 0) {
    // Final-state idempotence: checkpoint -> restore into a fresh engine ->
    // re-checkpoint must re-encode to identical bytes. (The restore stage
    // covers the mid-run variant.)
    const stream::Checkpoint saved = engine.checkpoint();
    const std::vector<std::uint8_t> bytes = stream::encode(saved);
    stream::ShardedEngine fresh(base_config);
    const bool restored = fresh.restore(saved);
    const std::vector<std::uint8_t> again =
        restored ? stream::encode(fresh.checkpoint())
                 : std::vector<std::uint8_t>{};
    checker->check("checkpoint-idempotent", "stream",
                   restored && bytes == again,
                   cat("restored=", restored, " bytes=", bytes.size(),
                       " re-encoded=", again.size(),
                       " equal=", bytes == again));
  }

  return out;
}

/// The batch-side figures the stream engine claims parity with — the same
/// lightweight recipe the stream parity tests use (clustering and the other
/// heavy stages are irrelevant to the parity contract).
struct BatchBaseline {
  core::StudyReport report;
  core::Matrix24x7 usage;
  std::uint64_t sessions = 0;
};

BatchBaseline batch_baseline(const cdr::Dataset& raw) {
  BatchBaseline batch;
  const cdr::Dataset cleaned = cdr::clean(raw, {}, batch.report.clean);
  batch.report.presence = core::analyze_presence(cleaned);
  batch.report.connected_time = core::analyze_connected_time(cleaned, 600);
  batch.report.days = core::analyze_days_on_network(cleaned);
  batch.report.cell_sessions = core::analyze_cell_sessions(cleaned, 600);
  batch.usage = core::usage_matrix(cleaned.all());
  cleaned.for_each_car([&](CarId, std::span<const cdr::Connection> records) {
    batch.sessions += cdr::aggregate_sessions(records).size();
  });
  return batch;
}

/// Parity reference records: the feed minus the provably-late set the
/// engine quarantines. Exact multiset subtraction — ByCarThenStart is a
/// total order, so erase removes precisely the matching record.
cdr::Dataset parity_survivors(const cdr::Dataset& raw,
                              const DeliveryPlan& plan) {
  if (plan.late.empty()) return {};  // caller uses `raw` directly
  std::multiset<cdr::Connection, cdr::ByCarThenStart> survivors(
      plan.arrivals.begin(), plan.arrivals.end());
  for (const cdr::Connection& lost : plan.late) {
    const auto it = survivors.find(lost);
    if (it != survivors.end()) survivors.erase(it);
  }
  cdr::Dataset base;
  base.set_fleet_size(raw.fleet_size());
  base.set_study_days(raw.study_days());
  for (const cdr::Connection& c : survivors) base.add(c);
  base.finalize();
  return base;
}

void check_report_shape(Checker& checker, const char* stage,
                        const core::DailyPresence& presence,
                        double connected_mean, double connected_p995,
                        const core::DaysOnNetwork& days, int study_days) {
  bool ok = true;
  std::ostringstream why;
  auto fraction_ok = [](double f) { return f >= 0.0 && f <= 1.0; };
  for (const double f : presence.cars_fraction) ok = ok && fraction_ok(f);
  for (const double f : presence.cells_fraction) ok = ok && fraction_ok(f);
  if (!ok) why << "presence fraction outside [0,1]; ";
  if (!fraction_ok(connected_mean) || !fraction_ok(connected_p995)) {
    ok = false;
    why << "connected-time fraction outside [0,1] (mean=" << connected_mean
        << " p995=" << connected_p995 << "); ";
  }
  for (const int d : days.days_per_car) {
    if (d < 0 || d > study_days) {
      ok = false;
      why << "days_per_car " << d << " outside [0," << study_days << "]; ";
      break;
    }
  }
  checker.check("report-shape", stage, ok,
                ok ? cat("fractions bounded, days within ", study_days)
                   : why.str());
}

void run_batch_stage(const Scenario& scenario, const sim::Study& study,
                     const cdr::Dataset& raw, const cdr::IngestReport& ingest,
                     const faults::FaultLog& injected, Checker& checker) {
  const std::uint64_t dups = ingest.count(cdr::FaultClass::kDuplicateRecord);
  checker.check(
      "ingest-partition", "batch",
      ingest.rows_read ==
          ingest.records_accepted + ingest.records_dropped + dups,
      cat("rows_read=", ingest.rows_read, " accepted=",
          ingest.records_accepted, " dropped=", ingest.records_dropped,
          " deduped=", dups));

  checker.check(
      "quarantine-bounded", "batch",
      ingest.quarantine.size() <= scenario.faults.quarantine_cap &&
          ingest.quarantine.size() + ingest.quarantine_overflow ==
              ingest.total_faults(),
      cat("entries=", ingest.quarantine.size(),
          " cap=", scenario.faults.quarantine_cap,
          " overflow=", ingest.quarantine_overflow,
          " faults=", ingest.total_faults()));

  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned = cdr::clean(raw, {}, clean_report);
  checker.check(
      "clean-partition", "batch",
      clean_report.input_records == raw.size() &&
          clean_report.input_records ==
              cleaned.size() + clean_report.total_removed(),
      cat("input=", clean_report.input_records, " survivors=", cleaned.size(),
          " removed=", clean_report.total_removed()));

  if (injected.total() > 0) {
    bool exact = true;
    std::ostringstream why;
    static constexpr cdr::FaultClass kIngestDetected[] = {
        cdr::FaultClass::kTruncatedLine,    cdr::FaultClass::kBadField,
        cdr::FaultClass::kDuplicateRecord,  cdr::FaultClass::kOutOfOrderRecord,
        cdr::FaultClass::kClockSkew,        cdr::FaultClass::kNegativeDuration,
        cdr::FaultClass::kOverflowDuration, cdr::FaultClass::kUnknownCell,
    };
    // Natural exact duplicates in the simulated trace are detected by the
    // same dedup check as injected ones; like hour artifacts below, the
    // sound relation for kDuplicateRecord is a two-sided bound.
    std::uint64_t natural_dups = 0;
    {
      const std::span<const cdr::Connection> all = study.raw.all();
      for (std::size_t i = 1; i < all.size(); ++i) {
        if (all[i] == all[i - 1]) ++natural_dups;
      }
    }
    for (const cdr::FaultClass fault : kIngestDetected) {
      const std::uint64_t detected = ingest.count(fault);
      const std::uint64_t planted = injected.count(fault);
      const std::uint64_t slack =
          fault == cdr::FaultClass::kDuplicateRecord ? natural_dups : 0;
      if (detected < planted || detected > planted + slack) {
        exact = false;
        why << "class " << static_cast<int>(fault) << " detected " << detected
            << " outside [" << planted << ", " << planted + slack << "]; ";
      }
    }
    // Hour artifacts pass ingest untouched and surface in the clean stage.
    // A pristine workload has no *modelled* artifact quirk, but a car can
    // legitimately stay connected exactly 3600 s, and such a record is
    // indistinguishable from an injected artifact (and may itself be
    // destroyed by another fault class). The sound exact relation is a
    // two-sided bound: injected <= cleaned <= injected + natural.
    if (scenario.workload.pristine) {
      std::uint64_t natural = 0;
      for (const cdr::Connection& c : study.raw.all()) {
        if (c.duration_s == 3600) ++natural;
      }
      const std::uint64_t injected_hour =
          injected.count(cdr::FaultClass::kHourArtifact);
      const std::uint64_t cleaned_hour = clean_report.hour_artifacts_removed;
      if (cleaned_hour < injected_hour ||
          cleaned_hour > injected_hour + natural) {
        exact = false;
        why << "hour artifacts cleaned " << cleaned_hour << " outside ["
            << injected_hour << ", " << injected_hour + natural
            << "] (injected + natural); ";
      }
    }
    checker.check("fault-detection-exact", "batch", exact,
                  exact ? cat("all classes exact, injected=", injected.total())
                        : why.str());
  }

  core::StudyOptions options;
  options.threads = 1;
  const core::CellLoad load =
      core::CellLoad::from_background(study.background);
  const core::StudyReport report =
      core::run_study(raw, study.topology.cells(), load, options);
  check_report_shape(checker, "batch", report.presence,
                     report.connected_time.mean_full,
                     report.connected_time.p995_full, report.days,
                     raw.study_days());

  if (scenario.check_columnar) {
    // Round-trip the lenient dataset through the CCDR2 columnar format.
    // `raw` is already screened and finalize-sorted, so re-screening on
    // decode is a pure pass-through — except dedup, which would eat natural
    // exact duplicates the sort made adjacent; disable it.
    core::StudyOptions columnar_options = options;
    columnar_options.ingest.mode = cdr::ParseMode::kLenient;
    columnar_options.ingest.check_duplicates = false;
    const std::string bytes = cdr::write_columnar_buffer(raw);
    cdr::IngestReport columnar_ingest;
    const cdr::Dataset round = cdr::read_columnar_buffer(
        bytes, columnar_options.ingest, columnar_ingest, "<harness>");
    core::StudyReport via_dataset =
        core::run_study(round, study.topology.cells(), load, columnar_options);
    std::string why;
    const bool round_trip_ok =
        core::study_reports_identical(report, via_dataset, &why);
    checker.check("columnar-roundtrip", "batch", round_trip_ok,
                  round_trip_ok
                      ? cat("read(write(ds)) reproduced every figure, bytes=",
                            bytes.size())
                      : cat("materialized round trip diverged: ", why));

    // The out-of-core sweep must equal materialize + run_study including
    // the ingest accounting the decode produced.
    via_dataset.ingest = columnar_ingest;
    const core::StudyReport via_sweep = core::run_study_columnar_buffer(
        bytes, study.topology.cells(), load, columnar_options, "<harness>");
    const bool sweep_ok =
        core::study_reports_identical(via_dataset, via_sweep, &why);
    checker.check("columnar-roundtrip", "batch", sweep_ok,
                  sweep_ok ? "out-of-core sweep == materialized study"
                           : cat("out-of-core sweep diverged: ", why));
  }
}

void run_restore_stage(const Scenario& scenario, const DeliveryPlan& plan,
                       const stream::StreamConfig& base_config,
                       std::uint64_t feed_seed,
                       const stream::StreamReport& reference, Checker& checker,
                       ScenarioResult& result) {
  for (const double kill_point : scenario.faults.kill_points) {
    // First life: drive to the kill point, checkpoint, remember only what a
    // real upstream remembers — the last acknowledged feed position.
    faults::FlakyFeed first_feed(plan.arrivals, feed_seed,
                                 flaky_config(scenario));
    stream::ShardedEngine first(base_config);
    const auto kill_after = static_cast<std::uint64_t>(
        kill_point * static_cast<double>(plan.arrivals.size()));
    pump(first_feed, [&](const cdr::Connection& c) { first.push(c); },
         kill_after);
    const stream::Checkpoint saved = first.checkpoint();
    const std::vector<std::uint8_t> image = stream::encode(saved);
    result.checkpoint_images.push_back(image);
    const std::size_t resume_from = first_feed.acked();

    // Second life: fresh feed (same seed -> same base order) rewound to the
    // ack position, fresh engine restored from the image.
    faults::FlakyFeed second_feed(plan.arrivals, feed_seed,
                                  flaky_config(scenario));
    second_feed.rewind_to(resume_from);
    stream::ShardedEngine second(base_config);
    const bool restored = second.restore(saved);
    if (restored && scenario.check_checkpoint_idempotence) {
      const std::vector<std::uint8_t> again =
          stream::encode(second.checkpoint());
      checker.check("checkpoint-idempotent", "restore", again == image,
                    cat("kill_point=", kill_point, " bytes=", image.size(),
                        " re-encoded equal=", again == image));
    }
    std::string why;
    bool identical = false;
    if (restored) {
      pump(second_feed, [&](const cdr::Connection& c) { second.push(c); });
      second.finish();
      identical = stream::reports_identical(reference, second.snapshot(), &why);
    }
    checker.check(
        "restore-replay-identical", "restore", restored && identical,
        cat("kill_point=", kill_point, " resume_from=", resume_from,
            !restored ? " restore refused"
                      : (identical ? " identical to uninterrupted run"
                                   : cat(" first diff: ", why))));
  }
}

/// The distributed stage: the same delivery plan through a dist::DistEngine
/// (one worker process per shard under heartbeat/backoff supervision), held
/// to dist-parity against the in-process stream stage's report and to
/// dist-supervision against the scenario's fault plan. Worker faults fire
/// on applied-record counts, so a seed reproduces the identical failure
/// point; only hang *detection* involves the wall clock, and the deadline
/// is sized so a spurious kill (which recovery makes harmless anyway)
/// cannot exhaust a generous budget.
void run_dist_stage(const Scenario& scenario, const DeliveryPlan& plan,
                    const stream::StreamConfig& base_config,
                    std::uint64_t feed_seed,
                    const stream::StreamReport& reference, Checker& checker) {
  dist::DistConfig config;
  config.stream = base_config;
  config.checkpoint_every = scenario.faults.dist_checkpoint_every;
  config.max_restarts = scenario.faults.dist_max_restarts;
  if (scenario.faults.dist_kill_worker >= 0) {
    dist::WorkerFault& fault = config.faults[scenario.faults.dist_kill_worker];
    fault.crash_after = scenario.faults.dist_kill_after;
    fault.generations = scenario.faults.dist_fault_generations;
  }
  if (scenario.faults.dist_hang_worker >= 0) {
    dist::WorkerFault& fault = config.faults[scenario.faults.dist_hang_worker];
    fault.hang_after = scenario.faults.dist_hang_after;
    fault.generations = scenario.faults.dist_fault_generations;
    // Tight heartbeat keeps the hung-worker wait short; the deadline stays
    // generous enough that sanitizer scheduling cannot starve a healthy
    // worker into a storm of spurious kills.
    config.heartbeat_ms = 10;
    config.heartbeat_timeout_ms = 400;
  }

  dist::DistEngine engine(config);
  deliver_plan(scenario, plan, feed_seed,
               [&](const cdr::Connection& c) { engine.push(c); });
  engine.finish();
  const stream::StreamReport report = engine.snapshot();

  // routed == integrated + pending + lost must close across process death.
  check_conservation_routed(checker, "dist", report);

  const bool faulted = scenario.faults.dist_kill_worker >= 0 ||
                       scenario.faults.dist_hang_worker >= 0;
  const std::string telemetry =
      cat("restarts=", engine.restarts_total(),
          " gap_replayed=", engine.gap_replayed_records(),
          " workers_lost=", engine.workers_lost(),
          " wire_faults=", engine.wire_report().total_faults());

  if (scenario.dist_expect_lost) {
    const std::uint64_t lost = degraded_lost(report);
    const std::uint64_t routed = report.engine.records_routed;
    const double expected_coverage =
        routed == 0
            ? 1.0
            : 1.0 - static_cast<double>(lost) / static_cast<double>(routed);
    checker.check("coverage-accounting", "dist",
                  !report.degraded_shards.empty() && lost > 0 &&
                      report.coverage_fraction == expected_coverage &&
                      report.coverage_fraction < 1.0,
                  cat("degraded=", report.degraded_shards.size(),
                      " lost=", lost, " coverage=", report.coverage_fraction,
                      " expected=", expected_coverage));
    // Crash-driven loss is exact: the budget burns deterministically, so
    // restarts_total equals max_restarts and the shard ends lost.
    checker.check(
        "dist-supervision", "dist",
        engine.workers_lost() == 1 &&
            engine.restarts_total() == scenario.faults.dist_max_restarts &&
            engine.wire_report().total_faults() == 0,
        telemetry);
    bool refused = false;
    try {
      (void)engine.checkpoint();
    } catch (const stream::StreamStateError&) {
      refused = true;
    }
    checker.check("dist-supervision", "dist", refused,
                  "a lossy distributed engine must refuse checkpoint()");
  } else {
    std::string why;
    const bool identical = stream::reports_identical(reference, report, &why);
    checker.check("dist-parity", "dist", identical,
                  identical ? cat("bitwise identical to in-process engine, ",
                                  telemetry)
                            : cat("first diff: ", why, " (", telemetry, ")"));
    const bool supervision_ok =
        engine.workers_lost() == 0 &&
        engine.wire_report().total_faults() == 0 &&
        (faulted ? engine.restarts_total() >= 1 &&
                       engine.gap_replayed_records() > 0
                 : engine.restarts_total() == 0);
    checker.check("dist-supervision", "dist", supervision_ok, telemetry);
  }
}

void run_stream_stage(const Scenario& scenario, std::uint64_t seed,
                      const cdr::Dataset& raw, Checker& checker,
                      ScenarioResult& result) {
  const stream::StreamConfig base_config = stream_config_for(scenario, raw);
  const DeliveryPlan plan =
      make_plan(scenario, seed, base_config, stream::arrival_order(raw));
  const std::uint64_t feed_seed = seed ^ 0xF1A6u;

  const DriveResult run =
      run_stream_once(scenario, plan, base_config, feed_seed, &checker);
  const stream::StreamReport& report = run.report;
  result.stream_deliveries = run.presented;

  checker.check("conservation-presented", "stream",
                report.engine.records_offered == run.presented,
                cat("presented=", run.presented,
                    " offered=", report.engine.records_offered));

  const std::uint64_t late =
      report.ingest.count(cdr::FaultClass::kOutOfOrderRecord);
  checker.check("late-exact", "stream", late == plan.late.size(),
                cat("quarantined=", late, " provably_late=",
                    plan.late.size()));

  if (scenario.exactly_once) {
    checker.check("exactly-once", "stream",
                  report.engine.records_replayed == run.duplicates,
                  cat("replayed=", report.engine.records_replayed,
                      " known_duplicates=", run.duplicates));
  }

  checker.check(
      "clean-partition", "stream",
      report.clean.input_records == report.clean.total_removed() +
                                        report.engine.records_routed + late,
      cat("input=", report.clean.input_records,
          " removed=", report.clean.total_removed(),
          " routed=", report.engine.records_routed, " late=", late));

  checker.check(
      "quarantine-bounded", "stream",
      report.ingest.quarantine.size() <= scenario.faults.quarantine_cap &&
          report.ingest.quarantine.size() +
                  report.ingest.quarantine_overflow ==
              report.ingest.total_faults(),
      cat("entries=", report.ingest.quarantine.size(),
          " cap=", scenario.faults.quarantine_cap,
          " overflow=", report.ingest.quarantine_overflow,
          " faults=", report.ingest.total_faults()));

  {
    const std::uint64_t lost = degraded_lost(report);
    const std::uint64_t routed = report.engine.records_routed;
    const double expected_coverage =
        routed == 0 ? 1.0
                    : 1.0 - static_cast<double>(lost) /
                                static_cast<double>(routed);
    bool ok;
    if (scenario.expect_degraded) {
      ok = !report.degraded_shards.empty() && lost > 0 &&
           report.coverage_fraction == expected_coverage &&
           report.coverage_fraction < 1.0;
    } else {
      ok = report.degraded_shards.empty() && lost == 0 &&
           report.coverage_fraction == 1.0;
    }
    checker.check("coverage-accounting", "stream", ok,
                  cat("degraded=", report.degraded_shards.size(),
                      " lost=", lost, " coverage=", report.coverage_fraction,
                      " expected=", expected_coverage));
  }

  check_report_shape(checker, "stream", report.presence,
                     report.connected_time.mean_full,
                     report.connected_time.p995_full, report.days,
                     raw.study_days());

  if (scenario.check_parity) {
    const cdr::Dataset survivors = parity_survivors(raw, plan);
    const cdr::Dataset& reference = plan.late.empty() ? raw : survivors;
    const BatchBaseline batch = batch_baseline(reference);
    const stream::ParityReport parity =
        stream::parity_against(report, batch.report, &batch.usage);
    // Exact-field parity and the P2 estimator bound are separate
    // invariants: the first must be bitwise, the second holds to 1%.
    const bool exact = parity.pass(/*p2_rel_tolerance=*/1e9) &&
                       report.sessions_closed + report.sessions_open ==
                           batch.sessions;
    checker.check(
        "batch-stream-parity", "stream", exact,
        cat("presence=", parity.presence_cars_max_delta, "/",
            parity.presence_cells_max_delta,
            " connected=", parity.connected_mean_full_delta,
            " duration=", parity.duration_median_delta,
            " usage=", parity.usage_max_delta,
            " sessions=", report.sessions_closed + report.sessions_open, "/",
            batch.sessions));
    // The P2 estimator needs sample size to converge: 1% at full workload
    // scale, 5% on small (test/smoke) feeds — the same split the stream
    // parity tests use.
    const double p2_bound =
        report.engine.records_routed >= 50000 ? 0.01 : 0.05;
    checker.check("p2-error-bound", "stream",
                  parity.p2_median_rel_error <= p2_bound,
                  cat("p2_rel_error=", parity.p2_median_rel_error,
                      " bound=", p2_bound));
  }

  if (scenario.check_rerun_determinism) {
    const DriveResult rerun =
        run_stream_once(scenario, plan, base_config, feed_seed, nullptr);
    std::string why;
    const bool identical =
        stream::reports_identical(report, rerun.report, &why);
    checker.check("rerun-determinism", "stream", identical,
                  identical ? "bitwise identical rerun"
                            : cat("first diff: ", why));
  }

  if (scenario.run_restore && plan.kind == FeedKind::kFlaky &&
      scenario.exactly_once) {
    run_restore_stage(scenario, plan, base_config, feed_seed, report, checker,
                      result);
  }

  // The distributed stage compares against this stage's report, so it only
  // makes sense when the in-process run itself was not sabotaged or killed.
  if (scenario.run_dist && scenario.faults.kill_shard < 0 &&
      !scenario.faults.sabotage_drop) {
    run_dist_stage(scenario, plan, base_config, feed_seed, report, checker);
  }
}

}  // namespace

bool ScenarioResult::pass() const {
  for (const CheckResult& c : checks) {
    if (!c.pass) return false;
  }
  return true;
}

std::size_t ScenarioResult::failures() const {
  std::size_t n = 0;
  for (const CheckResult& c : checks) {
    if (!c.pass) ++n;
  }
  return n;
}

const CheckResult* ScenarioResult::first_failure() const {
  for (const CheckResult& c : checks) {
    if (!c.pass) return &c;
  }
  return nullptr;
}

ScenarioResult run_scenario(const Scenario& scenario, std::uint64_t seed) {
  const auto started = std::chrono::steady_clock::now();
  ScenarioResult result;
  result.scenario = scenario.name;
  result.seed = seed;
  Checker checker;

  // Workload: simulate, export, corrupt, re-ingest leniently. The lenient
  // dataset is what both the batch and stream stages analyse — corruption
  // upstream must never open a gap between them.
  const sim::SimConfig sim_config = sim_config_for(scenario, seed);
  const sim::Study study = sim::simulate(sim_config);
  result.records = study.raw.size();

  faults::FaultEnv env;
  env.horizon_s = static_cast<std::int64_t>(sim_config.study_days) * 86400;
  env.cell_universe =
      static_cast<std::uint32_t>(study.topology.cells().size());

  const std::string csv = cdr::write_csv_text(study.raw);
  faults::FaultInjector injector(seed ^ 0xC0DEDu, env);
  faults::FaultInjector::CorruptedCsv corrupted;
  if (scenario.faults.csv_corruption > 0) {
    corrupted = injector.corrupt_csv(
        csv, faults::CsvFaultRates::uniform(scenario.faults.csv_corruption));
  } else {
    corrupted.text = csv;
  }
  result.injected_faults = corrupted.log.total();

  cdr::IngestOptions ingest_options;
  ingest_options.mode = cdr::ParseMode::kLenient;
  ingest_options.horizon_s = env.horizon_s;
  ingest_options.cell_universe = env.cell_universe;
  ingest_options.max_duration_s = 7 * 86400;
  ingest_options.quarantine_cap = scenario.faults.quarantine_cap;
  cdr::IngestReport ingest;
  const cdr::Dataset raw =
      cdr::read_csv_text(corrupted.text, ingest_options, ingest);

  if (scenario.run_batch) {
    run_batch_stage(scenario, study, raw, ingest, corrupted.log, checker);
  }
  if (scenario.run_stream) {
    run_stream_stage(scenario, seed, raw, checker, result);
  }

  result.checks = std::move(checker).take();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  return result;
}

bool HarnessSummary::pass() const {
  for (const ScenarioResult& r : results) {
    if (!r.pass()) return false;
  }
  return true;
}

std::size_t HarnessSummary::total_checks() const {
  std::size_t n = 0;
  for (const ScenarioResult& r : results) n += r.checks.size();
  return n;
}

std::size_t HarnessSummary::total_failures() const {
  std::size_t n = 0;
  for (const ScenarioResult& r : results) n += r.failures();
  return n;
}

HarnessSummary run_pack(std::span<const Scenario> scenarios,
                        std::span<const std::uint64_t> seeds) {
  HarnessSummary summary;
  summary.results.reserve(scenarios.size() * seeds.size());
  for (const Scenario& scenario : scenarios) {
    for (const std::uint64_t seed : seeds) {
      summary.results.push_back(run_scenario(scenario, seed));
    }
  }
  return summary;
}

std::string summary_json(const HarnessSummary& summary) {
  util::JsonArray runs;
  for (const ScenarioResult& r : summary.results) {
    util::JsonArray violations;
    for (const CheckResult& c : r.checks) {
      if (c.pass) continue;
      violations.push(util::JsonObject{}
                          .add("invariant", c.invariant)
                          .add("stage", c.stage)
                          .add("detail", c.detail)
                          .dump());
    }
    runs.push(util::JsonObject{}
                  .add("scenario", r.scenario)
                  .add("seed", r.seed)
                  .add("records", r.records)
                  .add("stream_deliveries", r.stream_deliveries)
                  .add("injected_faults", r.injected_faults)
                  .add("checks", r.checks.size())
                  .add("failures", r.failures())
                  .add("pass", r.pass())
                  .add("wall_s", r.wall_s)
                  .raw("violations", violations.dump())
                  .dump());
  }

  // Per-invariant rollup over every run, in registry order.
  util::JsonArray rollup;
  for (const InvariantInfo& info : invariant_registry()) {
    std::size_t checks = 0;
    std::size_t failures = 0;
    for (const ScenarioResult& r : summary.results) {
      for (const CheckResult& c : r.checks) {
        if (c.invariant != info.name) continue;
        ++checks;
        if (!c.pass) ++failures;
      }
    }
    if (checks == 0) continue;
    rollup.push(util::JsonObject{}
                    .add("invariant", info.name)
                    .add("checks", checks)
                    .add("failures", failures)
                    .dump());
  }

  return util::JsonObject{}
      .add("schema", "ccms-harness-summary-v1")
      .add("runs", summary.results.size())
      .add("checks", summary.total_checks())
      .add("failures", summary.total_failures())
      .add("pass", summary.pass())
      .raw("invariants", rollup.dump())
      .raw("results", runs.dump())
      .dump();
}

}  // namespace ccms::harness
