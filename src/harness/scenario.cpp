#include "harness/scenario.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ccms::harness {

namespace {

Scenario clean_baseline() {
  Scenario s;
  s.name = "clean-baseline";
  s.description =
      "pristine workload, canonical feed: every conservation law, exact "
      "batch/stream parity, rerun determinism, checkpoint idempotence";
  s.check_rerun_determinism = true;
  s.check_checkpoint_idempotence = true;
  return s;
}

Scenario corruption_sweep() {
  Scenario s;
  s.name = "corruption-sweep";
  s.description =
      "2% CSV corruption, even mix of every fault class: lenient ingest "
      "detects exactly what was injected; survivors keep batch/stream parity";
  s.faults.csv_corruption = 0.02;
  return s;
}

Scenario out_of_order_burst() {
  Scenario s;
  s.name = "out-of-order-burst";
  s.description =
      "jittered arrival order with a provably-late tail: the watermark "
      "quarantines exactly the known late set, nothing else";
  s.faults.feed_late_rate = 0.05;
  s.faults.feed_max_delay = 240;
  return s;
}

Scenario flaky_feed() {
  Scenario s;
  s.name = "flaky-feed";
  s.description =
      "at-least-once delivery with disconnects and reorder bursts: the "
      "exactly-once cursors absorb every duplicate, parity is untouched";
  s.faults.disconnect_rate = 0.03;
  s.faults.reorder_rate = 0.06;
  s.exactly_once = true;
  return s;
}

Scenario shard_death_under_load() {
  Scenario s;
  s.name = "shard-death-under-load";
  s.description =
      "one shard's operator dies mid-stream under backpressure: the engine "
      "degrades instead of crashing and accounts every lost record "
      "(routed == integrated + pending + lost)";
  s.faults.kill_shard = 1;
  s.faults.kill_shard_after = 200;
  s.faults.queue_batches = 2;   // small queue: producer feels backpressure
  s.faults.batch_records = 32;
  s.check_parity = false;  // a degraded stream is lossy by design
  s.expect_degraded = true;
  return s;
}

Scenario kill_restore_matrix() {
  Scenario s;
  s.name = "kill-restore-matrix";
  s.description =
      "kill + checkpoint/restore at 25/50/75% of a flaky feed: every "
      "restored run is bitwise identical to the uninterrupted one";
  s.faults.disconnect_rate = 0.02;
  s.faults.reorder_rate = 0.05;
  s.faults.kill_points = {0.25, 0.5, 0.75};
  s.exactly_once = true;
  s.run_restore = true;
  s.check_checkpoint_idempotence = true;
  return s;
}

Scenario quarantine_cap_saturation() {
  Scenario s;
  s.name = "quarantine-cap-saturation";
  s.description =
      "a late flood against a tiny quarantine cap: retention stays bounded, "
      "counters keep counting, the late set is still exact";
  s.faults.feed_late_rate = 0.30;
  s.faults.quarantine_cap = 8;
  return s;
}

Scenario duplicate_flood() {
  Scenario s;
  s.name = "duplicate-flood";
  s.description =
      "every record delivered three times: the exactly-once cursors drop "
      "precisely the redundant deliveries before any accounting";
  s.faults.duplicate_factor = 3;
  s.exactly_once = true;
  return s;
}

Scenario batch_50k_out_of_core() {
  Scenario s;
  s.name = "batch-50k-out-of-core";
  s.description =
      "out-of-core batch (50k cars x 30 days) through the CCDR2 columnar "
      "path: the out-of-core sweep reproduces the in-memory study bitwise";
  s.workload.cars = 50000;
  s.workload.days = 30;
  s.workload.grid = 32;
  s.run_stream = false;
  s.check_parity = false;
  s.check_columnar = true;
  return s;
}

/// Shared shape of the distributed scenarios: a lean workload (the dist
/// stage forks one process per shard and ships every record over a socket,
/// so the pack stays CI-sized), stream + dist stages only, parity judged
/// against the in-process engine rather than the batch study.
Scenario dist_base() {
  Scenario s;
  s.workload.cars = 96;
  s.workload.days = 7;
  s.workload.grid = 8;
  s.shards = 2;
  s.run_batch = false;
  s.check_parity = false;
  s.run_dist = true;
  return s;
}

Scenario dist_baseline() {
  Scenario s = dist_base();
  s.name = "dist-baseline";
  s.description =
      "fault-free distributed run, one worker process per shard: the "
      "DistEngine report is bitwise identical to the in-process engine and "
      "the supervisor restarts nothing";
  return s;
}

Scenario dist_worker_kill() {
  Scenario s = dist_base();
  s.name = "dist-worker-kill";
  s.description =
      "worker 1 crashes mid-batch after 150 applied records: the supervisor "
      "restarts it from the last rolling checkpoint, replays the gap, and "
      "the recovered report is bitwise identical to an uninterrupted run";
  s.faults.dist_kill_worker = 1;
  s.faults.dist_kill_after = 150;
  return s;
}

Scenario dist_worker_hang() {
  Scenario s = dist_base();
  s.name = "dist-worker-hang";
  s.description =
      "worker 0 stops responding after 100 applied records: the heartbeat "
      "deadline declares it hung, SIGKILL + restart + gap replay recover to "
      "the identical report (budget generous so sanitizer timing cannot "
      "flip the outcome)";
  s.faults.dist_hang_worker = 0;
  s.faults.dist_hang_after = 100;
  s.faults.dist_max_restarts = 6;
  return s;
}

Scenario dist_restart_storm() {
  Scenario s = dist_base();
  s.name = "dist-restart-storm";
  s.description =
      "worker 1 crashes in every generation: the supervisor burns the whole "
      "restart budget (exactly max_restarts restarts), then degrades — the "
      "shard is lost, conservation still closes, checkpoint() refuses";
  s.faults.dist_kill_worker = 1;
  s.faults.dist_kill_after = 80;
  s.faults.dist_fault_generations = 1000;
  s.faults.dist_max_restarts = 2;
  s.dist_expect_lost = true;
  return s;
}

Scenario dist_worker_lost() {
  Scenario s = dist_base();
  s.name = "dist-worker-lost";
  s.description =
      "zero restart budget: the first worker death is final — the shard "
      "degrades immediately with every routed record accounted as lost and "
      "coverage_fraction telling the truth";
  s.shards = 3;
  s.faults.dist_kill_worker = 2;
  s.faults.dist_kill_after = 60;
  s.faults.dist_fault_generations = 1000;
  s.faults.dist_max_restarts = 0;
  s.dist_expect_lost = true;
  return s;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<Scenario>& named_scenarios() {
  static const std::vector<Scenario> pack = {
      clean_baseline(),       corruption_sweep(),
      out_of_order_burst(),   flaky_feed(),
      shard_death_under_load(), kill_restore_matrix(),
      quarantine_cap_saturation(), duplicate_flood(),
      batch_50k_out_of_core(),
  };
  return pack;
}

const std::vector<Scenario>& dist_scenarios() {
  static const std::vector<Scenario> pack = {
      dist_baseline(),      dist_worker_kill(), dist_worker_hang(),
      dist_restart_storm(), dist_worker_lost(),
  };
  return pack;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : named_scenarios()) {
    if (s.name == name) return &s;
  }
  for (const Scenario& s : dist_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string serialize_scenario(const Scenario& s, std::uint64_t seed) {
  std::ostringstream out;
  out << "format=ccms-harness-scenario-v1\n";
  out << "name=" << s.name << "\n";
  out << "seed=" << seed << "\n";
  out << "cars=" << s.workload.cars << "\n";
  out << "days=" << s.workload.days << "\n";
  out << "grid=" << s.workload.grid << "\n";
  out << "pristine=" << (s.workload.pristine ? 1 : 0) << "\n";
  out << "shards=" << s.shards << "\n";
  out << "exactly_once=" << (s.exactly_once ? 1 : 0) << "\n";
  out << "allowed_lateness=" << s.allowed_lateness << "\n";
  out << "csv_corruption=" << fmt_double(s.faults.csv_corruption) << "\n";
  out << "feed_late_rate=" << fmt_double(s.faults.feed_late_rate) << "\n";
  out << "feed_max_delay=" << s.faults.feed_max_delay << "\n";
  out << "disconnect_rate=" << fmt_double(s.faults.disconnect_rate) << "\n";
  out << "reorder_rate=" << fmt_double(s.faults.reorder_rate) << "\n";
  out << "duplicate_factor=" << s.faults.duplicate_factor << "\n";
  out << "kill_shard=" << s.faults.kill_shard << "\n";
  out << "kill_shard_after=" << s.faults.kill_shard_after << "\n";
  out << "kill_points=";
  for (std::size_t i = 0; i < s.faults.kill_points.size(); ++i) {
    if (i > 0) out << ";";
    out << fmt_double(s.faults.kill_points[i]);
  }
  out << "\n";
  out << "quarantine_cap=" << s.faults.quarantine_cap << "\n";
  out << "queue_batches=" << s.faults.queue_batches << "\n";
  out << "batch_records=" << s.faults.batch_records << "\n";
  out << "sabotage_drop=" << (s.faults.sabotage_drop ? 1 : 0) << "\n";
  out << "dist_kill_worker=" << s.faults.dist_kill_worker << "\n";
  out << "dist_kill_after=" << s.faults.dist_kill_after << "\n";
  out << "dist_hang_worker=" << s.faults.dist_hang_worker << "\n";
  out << "dist_hang_after=" << s.faults.dist_hang_after << "\n";
  out << "dist_fault_generations=" << s.faults.dist_fault_generations << "\n";
  out << "dist_max_restarts=" << s.faults.dist_max_restarts << "\n";
  out << "dist_checkpoint_every=" << s.faults.dist_checkpoint_every << "\n";
  out << "run_batch=" << (s.run_batch ? 1 : 0) << "\n";
  out << "run_stream=" << (s.run_stream ? 1 : 0) << "\n";
  out << "run_restore=" << (s.run_restore ? 1 : 0) << "\n";
  out << "check_parity=" << (s.check_parity ? 1 : 0) << "\n";
  out << "expect_degraded=" << (s.expect_degraded ? 1 : 0) << "\n";
  out << "check_rerun_determinism=" << (s.check_rerun_determinism ? 1 : 0)
      << "\n";
  out << "check_checkpoint_idempotence="
      << (s.check_checkpoint_idempotence ? 1 : 0) << "\n";
  out << "check_columnar=" << (s.check_columnar ? 1 : 0) << "\n";
  out << "run_dist=" << (s.run_dist ? 1 : 0) << "\n";
  out << "dist_expect_lost=" << (s.dist_expect_lost ? 1 : 0) << "\n";
  out << "description=" << s.description << "\n";
  return out.str();
}

namespace {

bool parse_u64(std::string_view v, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && ptr == v.data() + v.size();
}

bool parse_i64(std::string_view v, std::int64_t& out) {
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && ptr == v.data() + v.size();
}

bool parse_double(std::string_view v, double& out) {
  // std::from_chars<double> is unavailable on some libstdc++ configurations;
  // strtod on a bounded copy is equivalent for our own serialized output.
  const std::string copy(v);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "0") { out = false; return true; }
  if (v == "1") { out = true; return true; }
  return false;
}

}  // namespace

std::optional<ParsedScenario> parse_scenario(std::string_view text,
                                             std::string* error) {
  ParsedScenario parsed;
  Scenario& s = parsed.scenario;
  bool saw_format = false;

  auto fail = [&](const std::string& why) -> std::optional<ParsedScenario> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail("malformed line (no '='): " + std::string(line));
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);

    bool ok = true;
    std::uint64_t u = 0;
    std::int64_t i = 0;
    double d = 0;
    if (key == "format") {
      saw_format = value == "ccms-harness-scenario-v1";
      ok = saw_format;
    } else if (key == "name") {
      s.name = std::string(value);
    } else if (key == "description") {
      s.description = std::string(value);
    } else if (key == "seed") {
      ok = parse_u64(value, parsed.seed);
    } else if (key == "cars") {
      ok = parse_u64(value, u);
      s.workload.cars = static_cast<std::uint32_t>(u);
    } else if (key == "days") {
      ok = parse_i64(value, i);
      s.workload.days = static_cast<int>(i);
    } else if (key == "grid") {
      ok = parse_i64(value, i);
      s.workload.grid = static_cast<int>(i);
    } else if (key == "pristine") {
      ok = parse_bool(value, s.workload.pristine);
    } else if (key == "shards") {
      ok = parse_i64(value, i);
      s.shards = static_cast<int>(i);
    } else if (key == "exactly_once") {
      ok = parse_bool(value, s.exactly_once);
    } else if (key == "allowed_lateness") {
      ok = parse_i64(value, i);
      s.allowed_lateness = i;
    } else if (key == "csv_corruption") {
      ok = parse_double(value, s.faults.csv_corruption);
    } else if (key == "feed_late_rate") {
      ok = parse_double(value, s.faults.feed_late_rate);
    } else if (key == "feed_max_delay") {
      ok = parse_i64(value, i);
      s.faults.feed_max_delay = i;
    } else if (key == "disconnect_rate") {
      ok = parse_double(value, s.faults.disconnect_rate);
    } else if (key == "reorder_rate") {
      ok = parse_double(value, s.faults.reorder_rate);
    } else if (key == "duplicate_factor") {
      ok = parse_i64(value, i);
      s.faults.duplicate_factor = static_cast<int>(i);
    } else if (key == "kill_shard") {
      ok = parse_i64(value, i);
      s.faults.kill_shard = static_cast<int>(i);
    } else if (key == "kill_shard_after") {
      ok = parse_u64(value, s.faults.kill_shard_after);
    } else if (key == "kill_points") {
      s.faults.kill_points.clear();
      std::size_t p = 0;
      while (p < value.size() && ok) {
        std::size_t semi = value.find(';', p);
        if (semi == std::string_view::npos) semi = value.size();
        ok = parse_double(value.substr(p, semi - p), d);
        if (ok) s.faults.kill_points.push_back(d);
        p = semi + 1;
      }
    } else if (key == "quarantine_cap") {
      ok = parse_u64(value, u);
      s.faults.quarantine_cap = static_cast<std::size_t>(u);
    } else if (key == "queue_batches") {
      ok = parse_u64(value, u);
      s.faults.queue_batches = static_cast<std::size_t>(u);
    } else if (key == "batch_records") {
      ok = parse_u64(value, u);
      s.faults.batch_records = static_cast<std::size_t>(u);
    } else if (key == "sabotage_drop") {
      ok = parse_bool(value, s.faults.sabotage_drop);
    } else if (key == "dist_kill_worker") {
      ok = parse_i64(value, i);
      s.faults.dist_kill_worker = static_cast<int>(i);
    } else if (key == "dist_kill_after") {
      ok = parse_u64(value, s.faults.dist_kill_after);
    } else if (key == "dist_hang_worker") {
      ok = parse_i64(value, i);
      s.faults.dist_hang_worker = static_cast<int>(i);
    } else if (key == "dist_hang_after") {
      ok = parse_u64(value, s.faults.dist_hang_after);
    } else if (key == "dist_fault_generations") {
      ok = parse_i64(value, i);
      s.faults.dist_fault_generations = static_cast<int>(i);
    } else if (key == "dist_max_restarts") {
      ok = parse_i64(value, i);
      s.faults.dist_max_restarts = static_cast<int>(i);
    } else if (key == "dist_checkpoint_every") {
      ok = parse_u64(value, s.faults.dist_checkpoint_every);
    } else if (key == "run_batch") {
      ok = parse_bool(value, s.run_batch);
    } else if (key == "run_stream") {
      ok = parse_bool(value, s.run_stream);
    } else if (key == "run_restore") {
      ok = parse_bool(value, s.run_restore);
    } else if (key == "check_parity") {
      ok = parse_bool(value, s.check_parity);
    } else if (key == "expect_degraded") {
      ok = parse_bool(value, s.expect_degraded);
    } else if (key == "check_rerun_determinism") {
      ok = parse_bool(value, s.check_rerun_determinism);
    } else if (key == "check_checkpoint_idempotence") {
      ok = parse_bool(value, s.check_checkpoint_idempotence);
    } else if (key == "check_columnar") {
      ok = parse_bool(value, s.check_columnar);
    } else if (key == "run_dist") {
      ok = parse_bool(value, s.run_dist);
    } else if (key == "dist_expect_lost") {
      ok = parse_bool(value, s.dist_expect_lost);
    } else {
      return fail("unknown key: " + std::string(key));
    }
    if (!ok) {
      return fail("malformed value for " + std::string(key) + ": " +
                  std::string(value));
    }
  }
  if (!saw_format) return fail("missing or unsupported format line");
  if (s.name.empty()) return fail("missing scenario name");
  return parsed;
}

}  // namespace ccms::harness
