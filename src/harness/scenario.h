// Declarative scenarios for the invariants harness.
//
// A Scenario is a complete, seeded description of one adversarial run:
// a workload (fleet size, days, topology), a fault plan (CSV corruption,
// provably-late jitter, flaky at-least-once delivery, duplicate floods,
// shard death, kill+restore points, backpressure and quarantine pressure)
// and the stages to execute (batch pipeline, stream replay, checkpoint/
// restore matrix). Everything is derived from (scenario, seed) alone, so a
// run reproduces bit for bit from its serialized form — the property the
// flight recorder (harness/replay.h) leans on.
//
// The shipped pack (named_scenarios) covers the failure modes a passive
// measurement study must stay correct under: dirty telemetry, reordered
// and disconnecting feeds, duplicate storms, dying shards, mid-run kills
// and quarantine saturation. Each named scenario runs green through
// harness::run_scenario for any seed; see DESIGN.md §12.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace ccms::harness {

/// The seeded workload a scenario simulates. `pristine` starts from
/// sim::SimConfig::pristine() (no modelled quirks) so injected faults are
/// the only dirt in the trace and detection counts can be asserted exactly.
struct Workload {
  std::uint32_t cars = 400;
  int days = 14;
  int grid = 10;  ///< topology grid width == height
  bool pristine = true;
};

/// The composable fault plan. Fields default to "off"; a scenario switches
/// on the dimensions it stresses. Feed perturbations are mutually
/// exclusive by precedence: flaky (disconnect/reorder) > jitter
/// (late/delay) > duplicate flood > plain arrival order.
struct FaultPlan {
  /// CSV corruption rate, an even mix of every fault class
  /// (faults::CsvFaultRates::uniform), applied to the exported study
  /// before ingest. 0 = canonical CSV.
  double csv_corruption = 0;

  /// Fraction of records made provably late (quarantined past the
  /// watermark) by faults::FaultInjector::jitter_feed.
  double feed_late_rate = 0;
  /// Uniform arrival delay bound for jitter_feed, seconds. > 0 enables
  /// jitter even when feed_late_rate == 0.
  time::Seconds feed_max_delay = 0;

  /// faults::FlakyFeed at-least-once delivery: disconnect and reorder
  /// burst rates. > 0 requires Scenario::exactly_once.
  double disconnect_rate = 0;
  double reorder_rate = 0;

  /// Every record delivered this many times back to back (>= 2 is a
  /// duplicate flood the exactly-once cursors must absorb).
  int duplicate_factor = 1;

  /// Shard death: the operator hook throws on this shard (-1 = none)...
  int kill_shard = -1;
  /// ...once the shard has integrated this many records.
  std::uint64_t kill_shard_after = 0;

  /// Kill+restore matrix (restore stage): feed fractions at which the
  /// engine is killed, checkpoint-restored and replayed from the last
  /// acknowledged feed position.
  std::vector<double> kill_points;

  /// Engine pressure knobs: quarantine retention cap and the queue/batch
  /// geometry (small queues force producer backpressure).
  std::size_t quarantine_cap = 64;
  std::size_t queue_batches = 64;
  std::size_t batch_records = 512;

  /// Negative-test sabotage: silently skip delivering one mid-feed record
  /// while still counting it as presented. Violates conservation-presented
  /// by construction — exists to prove the harness catches silent loss and
  /// to exercise the flight-recorder path.
  bool sabotage_drop = false;

  /// Distributed stage (dist::DistEngine) fault plan. Faults fire on a
  /// worker *process* by applied-record count, so every seed reproduces the
  /// same failure point. -1 = no fault on that axis.
  int dist_kill_worker = -1;            ///< worker to crash (exit mid-batch)
  std::uint64_t dist_kill_after = 0;    ///< ...after applying this many
  int dist_hang_worker = -1;            ///< worker to hang (stop responding)
  std::uint64_t dist_hang_after = 0;    ///< ...after applying this many
  /// Spawn generations the fault keeps firing in: 1 = fail once then run
  /// clean after restart; large = a restart storm until the budget decides.
  int dist_fault_generations = 1;
  /// Supervisor restart budget per worker before the shard is declared
  /// lost (0 = first death is final).
  int dist_max_restarts = 3;
  /// Routed records per worker between rolling checkpoint requests (small
  /// values keep the replay gap — and the harness run — short).
  std::uint64_t dist_checkpoint_every = 64;
};

/// One named, self-contained harness scenario.
struct Scenario {
  std::string name;
  std::string description;

  Workload workload;
  FaultPlan faults;

  int shards = 4;
  bool exactly_once = false;
  time::Seconds allowed_lateness = 300;

  /// Stages to execute.
  bool run_batch = true;
  bool run_stream = true;
  bool run_restore = false;  ///< requires exactly_once + a flaky feed

  /// Check batch/stream parity (against the survivors minus the provably
  /// late set). Off for scenarios that lose records by design (shard
  /// death).
  bool check_parity = true;
  /// The scenario is *supposed* to degrade shards; coverage accounting is
  /// then asserted lossy, not clean.
  bool expect_degraded = false;
  /// Run the stream stage twice and require bitwise-identical reports.
  bool check_rerun_determinism = false;
  /// Mid-run checkpoint -> restore into a fresh engine -> re-checkpoint
  /// must re-encode to identical bytes.
  bool check_checkpoint_idempotence = false;
  /// Round-trip the lenient dataset through the CCDR2 columnar format and
  /// require both the materialized round trip and the out-of-core columnar
  /// sweep to reproduce every batch figure bitwise.
  bool check_columnar = false;
  /// Run the distributed stage: drive a dist::DistEngine (one worker
  /// process per shard under supervision) through the same delivery plan
  /// and hold it to dist-parity / dist-supervision. Requires run_stream
  /// (the in-process report is the parity reference).
  bool run_dist = false;
  /// The dist fault plan is *supposed* to exhaust the restart budget: the
  /// shard must be declared lost, conservation must still close, and
  /// checkpoint() must refuse.
  bool dist_expect_lost = false;
};

/// The shipped scenario pack (nine scenarios; see file comment).
[[nodiscard]] const std::vector<Scenario>& named_scenarios();

/// The distributed pack: dist::DistEngine scenarios (baseline parity,
/// worker kill/hang recovery, restart storm, zero-budget loss). Separate
/// from named_scenarios so the core pack stays process-free; harness_run
/// selects it with --pack dist.
[[nodiscard]] const std::vector<Scenario>& dist_scenarios();

/// Looks up a shipped scenario by name across both packs; nullptr when
/// unknown.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// Serializes (scenario, seed) as deterministic `key=value` lines — the
/// flight-recorder format: `format=ccms-harness-scenario-v1` first, then
/// one line per key of the key list in scenario.cpp, `description` last.
/// parse_scenario runs the same key list, so it round-trips exactly.
[[nodiscard]] std::string serialize_scenario(const Scenario& scenario,
                                             std::uint64_t seed);

struct ParsedScenario {
  Scenario scenario;
  std::uint64_t seed = 0;
};

/// Parses serialize_scenario output. Unknown keys and malformed values are
/// errors (a replay bundle must not half-load): returns nullopt and fills
/// `error`.
[[nodiscard]] std::optional<ParsedScenario> parse_scenario(
    std::string_view text, std::string* error = nullptr);

/// The line reader of the harness's `key=value` text records (scenario.txt,
/// violation.txt): calls `visit(key, value)` for each non-blank line, split
/// at its first '='. Returns the first error — a line without '=', or the
/// first non-empty message `visit` returns — or an empty string.
[[nodiscard]] std::string read_key_values(
    std::string_view text,
    const std::function<std::string(std::string_view key,
                                    std::string_view value)>& visit);

}  // namespace ccms::harness
