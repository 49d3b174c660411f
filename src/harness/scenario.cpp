#include "harness/scenario.h"

#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>

#include "util/binio.h"

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

namespace {

constexpr std::string_view kFormatKey = "format";
constexpr std::string_view kFormat = "ccms-harness-scenario-v1";

/// The scenario.txt key list (DESIGN.md §12), in file order after the
/// leading `format` line. serialize_scenario and parse_scenario both run
/// it, so each key is bound to its member in this one place. The
/// description stays last: it is free text and may itself contain '='.
template <class IO, binio::Is<Scenario> S, binio::Is<std::uint64_t> Seed>
void keys(IO& io, S& s, Seed& seed) {
  auto& w = s.workload;
  auto& f = s.faults;
  io("name", s.name);
  io("seed", seed);
  io("cars", w.cars);
  io("days", w.days);
  io("grid", w.grid);
  io("pristine", w.pristine);
  io("shards", s.shards);
  io("exactly_once", s.exactly_once);
  io("allowed_lateness", s.allowed_lateness);
  io("csv_corruption", f.csv_corruption);
  io("feed_late_rate", f.feed_late_rate);
  io("feed_max_delay", f.feed_max_delay);
  io("disconnect_rate", f.disconnect_rate);
  io("reorder_rate", f.reorder_rate);
  io("duplicate_factor", f.duplicate_factor);
  io("kill_shard", f.kill_shard);
  io("kill_shard_after", f.kill_shard_after);
  io("kill_points", f.kill_points);
  io("quarantine_cap", f.quarantine_cap);
  io("queue_batches", f.queue_batches);
  io("batch_records", f.batch_records);
  io("sabotage_drop", f.sabotage_drop);
  io("dist_kill_worker", f.dist_kill_worker);
  io("dist_kill_after", f.dist_kill_after);
  io("dist_hang_worker", f.dist_hang_worker);
  io("dist_hang_after", f.dist_hang_after);
  io("dist_fault_generations", f.dist_fault_generations);
  io("dist_max_restarts", f.dist_max_restarts);
  io("dist_checkpoint_every", f.dist_checkpoint_every);
  io("run_batch", s.run_batch);
  io("run_stream", s.run_stream);
  io("run_restore", s.run_restore);
  io("check_parity", s.check_parity);
  io("expect_degraded", s.expect_degraded);
  io("check_rerun_determinism", s.check_rerun_determinism);
  io("check_checkpoint_idempotence", s.check_checkpoint_idempotence);
  io("check_columnar", s.check_columnar);
  io("run_dist", s.run_dist);
  io("dist_expect_lost", s.dist_expect_lost);
  io("description", s.description);
}

// One typed writer and one typed reader per member type.

void put(std::string& out, bool v) { out += v ? '1' : '0'; }

template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void put(std::string& out, std::string_view v) { out += v; }

void put(std::string& out, const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ';';
    put(out, v[i]);
  }
}

bool get(std::string_view v, bool& out) {
  if (v != "0" && v != "1") return false;
  out = v == "1";
  return true;
}

/// std::from_chars on the member's own type, so a value outside its range
/// is malformed instead of silently narrowed.
template <std::integral T>
bool get(std::string_view v, T& out) {
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && ptr == v.data() + v.size();
}

bool get(std::string_view v, double& out) {
  // std::from_chars<double> is unavailable on some libstdc++ configurations;
  // strtod on a bounded copy is equivalent for our own serialized output.
  const std::string copy(v);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

bool get(std::string_view v, std::string& out) {
  out = std::string(v);
  return true;
}

bool get(std::string_view v, std::vector<double>& out) {
  out.clear();
  for (std::size_t p = 0; p < v.size();) {
    std::size_t semi = v.find(';', p);
    if (semi == std::string_view::npos) semi = v.size();
    if (!get(v.substr(p, semi - p), out.emplace_back())) return false;
    p = semi + 1;
  }
  return true;
}

struct KeyWriter {
  std::string out;
  template <class T>
  void operator()(std::string_view key, const T& value) {
    out += key;
    out += '=';
    put(out, value);
    out += '\n';
  }
};

/// Stores one `key=value` line into whichever member the key names.
struct KeyReader {
  std::string_view key;
  std::string_view value;
  bool matched = false;
  bool ok = false;
  template <class T>
  void operator()(std::string_view k, T& member) {
    if (k != key) return;
    matched = true;
    ok = get(value, member);
  }
};

}  // namespace

std::string read_key_values(
    std::string_view text,
    const std::function<std::string(std::string_view, std::string_view)>&
        visit) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return "malformed line (no '='): " + std::string(line);
    }
    std::string error = visit(line.substr(0, eq), line.substr(eq + 1));
    if (!error.empty()) return error;
  }
  return {};
}

std::string serialize_scenario(const Scenario& s, std::uint64_t seed) {
  KeyWriter writer;
  writer(kFormatKey, kFormat);
  keys(writer, s, seed);
  return std::move(writer.out);
}

std::optional<ParsedScenario> parse_scenario(std::string_view text,
                                             std::string* error) {
  ParsedScenario parsed;
  bool saw_format = false;
  std::string why = read_key_values(
      text, [&](std::string_view key, std::string_view value) -> std::string {
        KeyReader reader{key, value};
        if (key == kFormatKey) {
          saw_format = reader.ok = value == kFormat;
        } else {
          keys(reader, parsed.scenario, parsed.seed);
          if (!reader.matched) return "unknown key: " + std::string(key);
        }
        if (!reader.ok) {
          return "malformed value for " + std::string(key) + ": " +
                 std::string(value);
        }
        return {};
      });
  if (why.empty() && !saw_format) why = "missing or unsupported format line";
  if (why.empty() && parsed.scenario.name.empty()) {
    why = "missing scenario name";
  }
  if (why.empty()) return parsed;
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

}  // namespace ccms::harness
