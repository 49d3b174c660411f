// perfbench: the repository's benchmark, one command end to end.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// It generates a trace with sim::simulate from the seed, drives it through
// the public entry points of cdr, core, exec, stream and dist, checks every
// result against a reference, and prints one JSON result line last on
// stdout: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. README.md beside this file defines the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cdr/clean.h"
#include "cdr/columnar.h"
#include "cdr/io.h"
#include "core/study.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "measure.h"
#include "sim/simulator.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/feed.h"
#include "stream/report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ccms;
using perfbench::Metrics;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
using Span = Tracer::Scope;

// Trace size: paper_default() geometry with a fleet small enough that the
// timed call repeats about twenty times in a run of BENCHMARK.json's
// run_seconds, so its median is steady.
constexpr int kCars = 2000;
constexpr int kDays = 28;
// CCDR2 block size. The default (2^18 records) gives a paper-scale file
// thousands of blocks, but this trace only five: two chunks of the columnar
// fold, so at width W it would run nearly serial. 2^14 gives about 70
// blocks, 18 chunks: several per thread, as on a paper-scale file.
constexpr std::size_t kBlockRecords = std::size_t{1} << 14;
// setup_s is the median of this many complete set-ups.
constexpr int kSetups = 7;
// The median pools at least this many timed calls, however long they take.
constexpr std::size_t kMinSamples = 5;
// stream_live takes one snapshot and one checkpoint per study week.
constexpr int kSlices = 4;
// The traced census pushes in finer slices to pool latency samples: with
// 110 of them, 11 lie beyond the p90.
constexpr int kCensusSlices = 110;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--spans <path>]");
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Executor width W (the caller is one of the W threads) and the stream
/// shard / dist worker count S, which leaves one core to the producer.
struct Widths {
  int nproc = 1;
  int batch = 1;
  int shards = 1;
};

Widths detect_widths() {
  Widths w;
  w.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  w.batch = w.nproc;
  w.shards = std::max(1, w.nproc - 1);
  return w;
}

/// A field of /proc/self/status in KiB (VmHWM).
double status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// CPU seconds used so far by every thread of this process and by its
/// reaped children (the dist worker processes).
double cpu_seconds() {
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += sec(usage.ru_utime) + sec(usage.ru_stime);
  }
  return total;
}

std::string list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += " " + std::to_string(v);
  return out;
}

perfbench::HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) throw std::runtime_error("cannot read /proc/stat");
  return perfbench::parse_host_ticks(line);
}

/// Resets VmHWM to the current RSS, so the peak read later covers only what
/// runs after this point (ru_maxrss cannot be reset).
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot write /proc/self/clear_refs");
}

sim::SimConfig sim_config(std::uint64_t seed, int threads) {
  sim::SimConfig config = sim::SimConfig::paper_default();
  config.fleet.size = kCars;
  config.study_days = kDays;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// Result of one timed call: its time and its check.
struct Outcome {
  /// Wall time less the share of it the hypervisor gave the machine's CPUs
  /// to other guests: wall × (1 − stolen ÷ busy CPU time, machine-wide).
  /// On a shared host, steal comes and goes for minutes at a time and would
  /// otherwise decide a run's median; the process itself is the only thing
  /// keeping the machine busy, so the machine-wide share is its own.
  double seconds = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  double peak_rss_mb = 0;  ///< VmHWM over the call
  bool ok = false;
  std::string why;
};

/// Times one call (or set-up), from construction to stop(), and takes its
/// peak memory.
class Stopwatch {
 public:
  Stopwatch() { reset_peak_rss(); }

  void stop(Outcome& out) const {
    out.wall_seconds = seconds_since(wall_);
    out.cpu_seconds = cpu_seconds() - cpu_;
    out.seconds = out.wall_seconds *
                  (1.0 - perfbench::steal_share(host_, host_ticks()));
    out.peak_rss_mb = status_kib("VmHWM") / 1024.0;
  }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = cpu_seconds();
  perfbench::HostTicks host_ = host_ticks();
};

/// One workload: its set-up (what setup_s times), its timed call at a
/// width (W or S; the census alone also runs width 1), and the checks that
/// run once per run.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the trace and encodes the workload's input from it.
  virtual void set_up(const sim::SimConfig& config, Tracer& tracer) = 0;
  /// Untimed references the checks of calls at `width` compare against.
  virtual void prepare_references(int width) = 0;
  virtual Outcome call(int width, Tracer& tracer) = 0;
  /// Once-per-run checks after the timed loop.
  virtual bool final_check(std::string& /*why*/) { return true; }
  /// Bytes of the durable form the workload keeps: the input file for the
  /// batch paths, the engine's checkpoint image for stream and dist.
  [[nodiscard]] virtual std::uint64_t stored_bytes() const = 0;
  [[nodiscard]] virtual int wide_width(const Widths& widths) const = 0;

  [[nodiscard]] const sim::Study& study() const { return *study_; }

 protected:
  void simulate(const sim::SimConfig& config, Tracer& tracer) {
    study_.reset();  // free the previous set-up before building the next
    Span span(tracer, "sim.simulate");
    study_ = std::make_unique<sim::Study>(sim::simulate(config));
  }

  std::unique_ptr<sim::Study> study_;
};

// ---------------------------------------------------------------- batch

/// CCDR2 bytes of `raw` in blocks of kBlockRecords records.
std::string ccdr2_bytes(const cdr::Dataset& raw) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  cdr::ColumnarWriter writer(out, raw.fleet_size(), raw.study_days(),
                             kBlockRecords);
  for (const cdr::Connection& c : raw.all()) writer.add(c);
  writer.finish();
  return std::move(out).str();
}

class BatchWorkload : public Workload {
 public:
  /// Width 1 over the generated Dataset: a timed call at width W that
  /// matches it proves width independence and a lossless input round trip.
  void prepare_references(int) override {
    reference_ = core::run_study(study().raw, study().topology.cells(), *load_);
  }
  [[nodiscard]] std::uint64_t stored_bytes() const override {
    return bytes_.size();
  }
  [[nodiscard]] int wide_width(const Widths& widths) const override {
    return widths.batch;
  }

 protected:
  void build_load(Tracer& tracer) {
    load_.reset();
    Span span(tracer, "core.cell_load");
    load_ = core::CellLoad::from_background(study().background);
  }

  std::optional<core::CellLoad> load_;
  std::string bytes_;  ///< CSV text or CCDR2 bytes
  core::StudyReport reference_;
};

/// CSV text in memory -> read_csv_text -> run_study.
class BatchCsv final : public BatchWorkload {
 public:
  void set_up(const sim::SimConfig& config, Tracer& tracer) override {
    bytes_.clear();
    simulate(config, tracer);
    build_load(tracer);
    Span span(tracer, "cdr.write_csv_text");
    bytes_ = cdr::write_csv_text(study().raw);
  }

  Outcome call(int width, Tracer& tracer) override {
    cdr::IngestOptions ingest;
    ingest.threads = width;
    // Our own trace may hold legitimate exact duplicates.
    ingest.check_duplicates = false;
    core::StudyOptions options;
    options.threads = width;

    const Stopwatch watch;
    cdr::IngestReport ingest_report;
    std::optional<cdr::Dataset> dataset;
    {
      Span span(tracer, "call.cdr.read_csv_text");
      dataset.emplace(cdr::read_csv_text(bytes_, ingest, ingest_report));
    }
    std::optional<core::StudyReport> report;
    {
      Span span(tracer, "call.core.run_study");
      report.emplace(core::run_study(*dataset, study().topology.cells(),
                                     *load_, options));
    }
    Outcome out;
    watch.stop(out);
    out.ok = core::study_reports_identical(reference_, *report, &out.why);
    return out;
  }
};

/// CCDR2 bytes in memory -> run_study_columnar_buffer.
class BatchColumnar final : public BatchWorkload {
 public:
  void set_up(const sim::SimConfig& config, Tracer& tracer) override {
    bytes_.clear();
    simulate(config, tracer);
    build_load(tracer);
    Span span(tracer, "cdr.write_columnar");
    bytes_ = ccdr2_bytes(study().raw);
  }

  Outcome call(int width, Tracer& tracer) override {
    core::StudyOptions options;
    options.threads = width;
    options.ingest.check_duplicates = false;

    const Stopwatch watch;
    std::optional<core::StudyReport> report;
    {
      Span span(tracer, "call.core.run_study_columnar_buffer");
      report.emplace(core::run_study_columnar_buffer(
          bytes_, study().topology.cells(), *load_, options));
    }
    Outcome out;
    watch.stop(out);
    // The decode must accept every record; the figures must then equal
    // run_study over the generated Dataset bit for bit.
    if (!report->ingest.clean() ||
        report->ingest.records_accepted != study().raw.size()) {
      out.why = "columnar ingest rejected records";
      return out;
    }
    report->ingest = {};
    out.ok = core::study_reports_identical(reference_, *report, &out.why);
    return out;
  }
};

// --------------------------------------------------------------- stream

/// The batch figures a stream report is held to (stream/report.h parity).
core::StudyReport parity_reference(const cdr::Dataset& raw) {
  core::StudyReport batch;
  const cdr::Dataset cleaned = cdr::clean(raw, {}, batch.clean);
  batch.presence = core::analyze_presence(cleaned);
  batch.connected_time = core::analyze_connected_time(cleaned, 600);
  batch.days = core::analyze_days_on_network(cleaned);
  batch.cell_sessions = core::analyze_cell_sessions(cleaned, 600);
  return batch;
}

/// Slice k of n equal slices of the feed; the last one takes the remainder.
std::span<const cdr::Connection> slice(
    const std::vector<cdr::Connection>& feed, int k, int n) {
  const std::size_t per_slice = feed.size() / static_cast<std::size_t>(n);
  const std::size_t begin = static_cast<std::size_t>(k) * per_slice;
  const std::size_t end = k + 1 == n ? feed.size() : begin + per_slice;
  return {feed.data() + begin, end - begin};
}

/// dist_failover's engine: `workers` processes, worker 1 (worker 0 when
/// alone) crashed once halfway through its share of `records`.
dist::DistConfig failover_config(const cdr::Dataset& raw, int workers,
                                 std::size_t records) {
  dist::DistConfig config;
  config.stream = stream::config_for(raw, workers);
  config.faults[std::min(1, workers - 1)] = {
      .crash_after = records / (2 * static_cast<std::size_t>(workers)),
      .hang_after = 0,
      .generations = 1};
  return config;
}

class FeedWorkload : public Workload {
 public:
  void set_up(const sim::SimConfig& config, Tracer& tracer) override {
    arrivals_.clear();
    simulate(config, tracer);
    Span span(tracer, "stream.arrival_order");
    arrivals_ = stream::arrival_order(study().raw);
  }
  [[nodiscard]] int wide_width(const Widths& widths) const override {
    return widths.shards;
  }
  [[nodiscard]] std::uint64_t stored_bytes() const override {
    return stored_bytes_;
  }

 protected:
  std::vector<cdr::Connection> arrivals_;
  std::uint64_t stored_bytes_ = 0;
};

/// A closed loop from one producer into a ShardedEngine: the feed in
/// kSlices equal slices, snapshot() and checkpoint() + encode() after each.
/// The engine keeps config_for()'s defaults: exactly_once would drop the
/// trace's legitimate exact duplicates, and the report would then no longer
/// match the batch figures it is checked against.
class StreamLive final : public FeedWorkload {
 public:
  void prepare_references(int) override {
    batch_ = parity_reference(study().raw);
  }

  Outcome call(int width, Tracer& tracer) override {
    const stream::StreamConfig config = stream::config_for(study().raw, width);

    const Stopwatch watch;
    stream::ShardedEngine engine(config);
    stream::StreamReport slice_report;
    std::vector<std::uint8_t> image;
    for (int k = 0; k < kSlices; ++k) {
      {
        Span span(tracer, "call.stream.push");
        engine.push(slice(arrivals_, k, kSlices));
      }
      {
        Span span(tracer, "call.stream.snapshot");
        slice_report = engine.snapshot();
      }
      Span span(tracer, "call.stream.checkpoint");
      image = stream::encode(engine.checkpoint());
    }
    stream::StreamReport report;
    {
      Span span(tracer, "call.stream.finish");
      engine.finish();
      report = engine.snapshot();
    }
    Outcome out;
    watch.stop(out);

    const stream::ParityReport parity = stream::parity_against(report, batch_);
    if (!parity.pass()) {
      out.why = "stream report fails batch parity";
      return out;
    }
    if (!first_) {
      first_ = report;
    } else if (!stream::reports_identical(*first_, report, &out.why)) {
      out.why = "final report differs across repeats: " + out.why;
      return out;
    }
    config_ = config;
    last_image_ = std::move(image);
    last_slice_report_ = std::move(slice_report);
    stored_bytes_ = last_image_.size();
    out.ok = true;
    return out;
  }

  /// The last image, restored into a pristine engine, reproduces the
  /// snapshot taken when it was written.
  bool final_check(std::string& why) override {
    cdr::IngestReport fault;
    const std::optional<stream::Checkpoint> decoded =
        stream::decode(last_image_, {.mode = cdr::ParseMode::kStrict}, fault);
    stream::ShardedEngine restored(config_);
    if (!decoded || !restored.restore(*decoded)) {
      why = "last checkpoint image did not restore";
      return false;
    }
    if (!stream::reports_identical(last_slice_report_, restored.snapshot(),
                                   &why)) {
      why = "restored image diverges: " + why;
      return false;
    }
    return true;
  }

 private:
  core::StudyReport batch_;
  std::optional<stream::StreamReport> first_;
  stream::StreamConfig config_;
  std::vector<std::uint8_t> last_image_;
  stream::StreamReport last_slice_report_;
};

/// The feed through a DistEngine whose crashed worker is restarted from its
/// last rolling image (failover_config).
class DistFailover final : public FeedWorkload {
 public:
  void prepare_references(int width) override {
    stream::ShardedEngine engine(stream::config_for(study().raw, width));
    engine.push(std::span<const cdr::Connection>(arrivals_));
    engine.finish();
    reference_ = engine.snapshot();
  }

  Outcome call(int width, Tracer& tracer) override {
    const dist::DistConfig config =
        failover_config(study().raw, width, arrivals_.size());

    const Stopwatch watch;
    std::optional<dist::DistEngine> engine;
    {
      Span span(tracer, "call.dist.spawn");
      engine.emplace(config);
    }
    {
      Span span(tracer, "call.dist.push");
      engine->push(std::span<const cdr::Connection>(arrivals_));
    }
    stream::StreamReport report;
    {
      Span span(tracer, "call.dist.finish");
      engine->finish();
      report = engine->snapshot();
    }
    Outcome out;
    watch.stop(out);

    if (engine->restarts_total() != 1 || engine->workers_lost() != 0 ||
        !engine->wire_report().clean()) {
      out.why = "supervision: restarts " +
                std::to_string(engine->restarts_total()) + ", lost " +
                std::to_string(engine->workers_lost()) + ", wire faults " +
                std::to_string(engine->wire_report().total_faults());
      return out;
    }
    if (!stream::reports_identical(reference_, report, &out.why)) {
      out.why = "dist report diverges from in-process engine: " + out.why;
      return out;
    }
    if (stored_bytes_ == 0) {
      stored_bytes_ = stream::encode(engine->checkpoint()).size();
    }
    out.ok = true;
    return out;
  }

 private:
  stream::StreamReport reference_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "batch_csv") return std::make_unique<BatchCsv>();
  if (name == "batch_columnar") return std::make_unique<BatchColumnar>();
  if (name == "stream_live") return std::make_unique<StreamLive>();
  if (name == "dist_failover") return std::make_unique<DistFailover>();
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (batch_csv, batch_columnar, stream_live, dist_failover)");
}

// --------------------------------------------------------------- census

double ms(double seconds) { return seconds * 1e3; }

/// The traced run's per-layer numbers: each layer's public calls once over
/// the same trace, every call inside a span, whatever the workload.
void census(const sim::Study& study, const Widths& widths, Tracer& tracer,
            Metrics& m) {
  const cdr::Dataset& raw = study.raw;
  const net::CellTable& cells = study.topology.cells();
  const auto timed = [&](const std::string& name, auto&& fn) {
    Span span(tracer, name);
    return fn();  // a void fn() makes this a void return, too
  };
  const auto last = [&](const std::string& name) {
    return tracer.durations(name).back();
  };

  m.add("sim.generate_s", perfbench::median(tracer.durations("sim.simulate")),
        "s");

  // Heap bytes in use, not VmRSS: the table is many small per-cell blocks
  // that reuse memory the set-ups freed, so RSS barely moves.
  const std::size_t heap_before = mallinfo2().uordblks;
  const core::CellLoad load = timed("core.cell_load", [&] {
    return core::CellLoad::from_background(study.background);
  });
  m.add("core.cell_load_s", last("core.cell_load"), "s");
  m.add("core.cell_load_mb",
        static_cast<double>(mallinfo2().uordblks - heap_before) / (1 << 20),
        "MiB");

  // cdr: encode, ingest, clean, decode.
  const std::string csv =
      timed("cdr.write_csv_text", [&] { return cdr::write_csv_text(raw); });
  const std::string ccdr2 =
      timed("cdr.write_columnar", [&] { return ccdr2_bytes(raw); });
  m.add("cdr.encode_csv_s", last("cdr.write_csv_text"), "s");
  m.add("cdr.encode_ccdr2_s", last("cdr.write_columnar"), "s");
  m.add("cdr.csv_bytes", static_cast<double>(csv.size()), "B");
  m.add("cdr.ccdr2_bytes", static_cast<double>(ccdr2.size()), "B");

  for (const int width : {widths.batch, 1}) {
    cdr::IngestOptions options;
    options.threads = width;
    options.check_duplicates = false;
    cdr::IngestReport report;
    const std::string name = width == 1 ? "cdr.ingest_1t" : "cdr.ingest";
    const cdr::Dataset ingested =
        timed(name, [&] { return cdr::read_csv_text(csv, options, report); });
    if (ingested.size() != raw.size()) {
      throw std::runtime_error("census: CSV ingest lost records");
    }
  }
  m.add("cdr.ingest_s", last("cdr.ingest"), "s");
  m.add("cdr.ingest_s_1t", last("cdr.ingest_1t"), "s");

  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned =
      timed("cdr.clean", [&] { return cdr::clean(raw, {}, clean_report); });
  m.add("cdr.clean_s", last("cdr.clean"), "s");
  m.add("cdr.clean_removed", static_cast<double>(clean_report.total_removed()),
        "count");

  {
    Span span(tracer, "cdr.decode");
    cdr::IngestReport report;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(ccdr2, {}, report);
    cdr::ColumnBlock block;
    std::uint64_t decoded = 0;
    for (std::size_t b = 0; b < file.blocks().size(); ++b) {
      if (file.decode_block(b, block) != cdr::ColumnarFile::DecodeStatus::kOk) {
        throw std::runtime_error("census: CCDR2 block failed to decode");
      }
      decoded += block.size();
    }
    if (decoded != raw.size()) throw std::runtime_error("census: decode count");
  }
  m.add("cdr.decode_s", last("cdr.decode"), "s");

  // core: the fused drivers at both widths, then each analysis alone.
  for (const int width : {widths.batch, 1}) {
    core::StudyOptions options;
    options.threads = width;
    options.ingest.check_duplicates = false;
    const std::string suffix = width == 1 ? "_1t" : "";
    const core::StudyReport in_memory = timed("core.run_study" + suffix, [&] {
      return core::run_study(raw, cells, load, options);
    });
    core::StudyReport columnar =
        timed("core.run_study_columnar" + suffix, [&] {
          return core::run_study_columnar_buffer(ccdr2, cells, load, options);
        });
    columnar.ingest = {};
    if (!core::study_reports_identical(in_memory, columnar)) {
      throw std::runtime_error("census: columnar study diverges");
    }
  }
  const double study_s = last("core.run_study");
  const double study_1t = last("core.run_study_1t");
  const double columnar_s = last("core.run_study_columnar");
  const double columnar_1t = last("core.run_study_columnar_1t");
  m.add("core.study_s", study_s, "s");
  m.add("core.study_s_1t", study_1t, "s");
  m.add("core.columnar_study_s", columnar_s, "s");
  m.add("core.columnar_study_s_1t", columnar_1t, "s");

  core::StudyOptions defaults;
  double pass_sum = 0;
  const auto pass = [&](const std::string& name, auto&& fn) {
    const std::string span_name = "core.pass." + name;
    auto result = timed(span_name, fn);
    pass_sum += last(span_name);
    m.add(span_name + "_s", last(span_name), "s");
    return result;
  };
  pass("presence", [&] { return core::analyze_presence(cleaned); });
  pass("connected_time",
       [&] { return core::analyze_connected_time(cleaned, 600); });
  const core::DaysOnNetwork days = pass(
      "days_on_network", [&] { return core::analyze_days_on_network(cleaned); });
  const core::BusyTime busy = pass("busy_time", [&] {
    return core::analyze_busy_time(cleaned, load, defaults.busy_prb_threshold);
  });
  pass("segmentation", [&] {
    return core::segment_cars(days, busy, defaults.segmentation);
  });
  pass("cell_sessions",
       [&] { return core::analyze_cell_sessions(cleaned, 600); });
  pass("handovers", [&] { return core::analyze_handovers(cleaned, cells); });
  pass("carrier_usage",
       [&] { return core::analyze_carrier_usage(cleaned, cells); });
  const core::ConcurrencyGrid grid = pass(
      "concurrency_grid", [&] { return core::ConcurrencyGrid::build(cleaned); });
  pass("clusters", [&] {
    return core::cluster_busy_cells(grid, load, defaults.cluster_load_threshold,
                                    defaults.cluster_k, defaults.cluster_seed);
  });
  m.add("core.pass_sum_s", pass_sum, "s");
  m.add("core.fusion_ratio", pass_sum / study_1t, "ratio");

  const double ingest_s = last("cdr.ingest");
  const double ingest_1t = last("cdr.ingest_1t");
  m.add("exec.speedup_csv", (ingest_1t + study_1t) / (ingest_s + study_s), "x");
  m.add("exec.speedup_columnar", columnar_1t / columnar_s, "x");

  // stream: the stream_live call at S shards, in finer slices.
  const std::vector<cdr::Connection> arrivals =
      timed("stream.arrival_order", [&] { return stream::arrival_order(raw); });
  m.add("stream.arrival_order_s", last("stream.arrival_order"), "s");
  const stream::StreamConfig config = stream::config_for(raw, widths.shards);
  std::vector<std::uint8_t> image;
  {
    stream::ShardedEngine engine(config);
    stream::Checkpoint checkpoint;
    for (int k = 0; k < kCensusSlices; ++k) {
      timed("stream.push",
            [&] { engine.push(slice(arrivals, k, kCensusSlices)); });
      timed("stream.snapshot", [&] { return engine.snapshot(); });
      Span span(tracer, "stream.durable_image");
      checkpoint =
          timed("stream.checkpoint", [&] { return engine.checkpoint(); });
      image = timed("stream.encode", [&] { return stream::encode(checkpoint); });
    }
    timed("stream.finish", [&] { engine.finish(); });
    const auto p50_p90 = [&](const std::string& metric, const char* span) {
      const std::vector<double> samples = tracer.durations(span);
      m.add(metric + "_p50", ms(perfbench::quantile(samples, 0.5)), "ms");
      m.add(metric + "_p90", ms(perfbench::quantile(samples, 0.9)), "ms");
    };
    m.add("stream.push_s", tracer.total("stream.push"), "s");
    m.add("stream.finish_s", last("stream.finish"), "s");
    p50_p90("stream.result_ms", "stream.snapshot");
    p50_p90("stream.checkpoint_ms", "stream.durable_image");
    m.add("stream.checkpoint_call_ms_p50",
          ms(perfbench::median(tracer.durations("stream.checkpoint"))), "ms");
    m.add("stream.encode_ms_p50",
          ms(perfbench::median(tracer.durations("stream.encode"))), "ms");
    m.add("stream.latency_samples",
          static_cast<double>(tracer.durations("stream.snapshot").size()),
          "count");
    m.add("stream.checkpoint_bytes", static_cast<double>(image.size()), "B");
    checkpoint.shards.clear();
    const double producer_bytes =
        static_cast<double>(stream::encode(checkpoint).size());
    m.add("stream.image_producer_bytes", producer_bytes, "B");
    m.add("stream.image_shard_bytes",
          static_cast<double>(image.size()) - producer_bytes, "B");
  }
  {
    Span span(tracer, "stream.restore");
    cdr::IngestReport fault;
    const std::optional<stream::Checkpoint> decoded =
        stream::decode(image, {.mode = cdr::ParseMode::kStrict}, fault);
    stream::ShardedEngine restored(config);
    if (!decoded || !restored.restore(*decoded)) {
      throw std::runtime_error("census: checkpoint did not restore");
    }
  }
  m.add("stream.restore_ms", ms(last("stream.restore")), "ms");

  // dist: the dist_failover call at S workers, then the wire codec alone.
  const dist::DistConfig dist_config =
      failover_config(raw, widths.shards, arrivals.size());
  {
    std::optional<dist::DistEngine> engine;
    timed("dist.spawn", [&] { engine.emplace(dist_config); });
    timed("dist.push", [&] {
      engine->push(std::span<const cdr::Connection>(arrivals));
    });
    timed("dist.finish", [&] { engine->finish(); });
    if (engine->workers_lost() != 0 || !engine->wire_report().clean()) {
      throw std::runtime_error("census: dist run lost a worker or saw a fault");
    }
    m.add("dist.spawn_ms", ms(last("dist.spawn")), "ms");
    m.add("dist.push_s", last("dist.push"), "s");
    m.add("dist.finish_s", last("dist.finish"), "s");
    m.add("dist.restarts", engine->restarts_total(), "count");
    m.add("dist.gap_replayed_records",
          static_cast<double>(engine->gap_replayed_records()), "count");
  }
  {
    const std::size_t batch = dist_config.stream.batch_records;
    std::vector<std::vector<std::uint8_t>> frames;
    {
      Span span(tracer, "dist.frame_encode");
      for (std::size_t begin = 0; begin < arrivals.size(); begin += batch) {
        const std::size_t end = std::min(arrivals.size(), begin + batch);
        dist::BatchFrame frame;
        frame.seq_of_last = end;
        frame.records.assign(arrivals.begin() + static_cast<std::ptrdiff_t>(begin),
                             arrivals.begin() + static_cast<std::ptrdiff_t>(end));
        frames.push_back(dist::encode_batch(frame));
      }
    }
    std::uint64_t records = 0;
    {
      Span span(tracer, "dist.frame_decode");
      dist::FrameDecoder decoder;
      dist::Frame frame;
      for (const auto& bytes : frames) {
        decoder.feed(bytes);
        while (decoder.next(frame) == dist::FrameDecoder::Status::kFrame) {
          records += frame.batch.records.size();
        }
      }
    }
    if (records != arrivals.size()) {
      throw std::runtime_error("census: wire frames lost records");
    }
    m.add("dist.frame_encode_s", last("dist.frame_encode"), "s");
    m.add("dist.frame_decode_s", last("dist.frame_decode"), "s");
  }
}

// ---------------------------------------------------------------- main

/// Times and CPU times of repeated calls (or set-ups).
struct Samples {
  std::vector<double> seconds;  ///< net of steal (Outcome::seconds)
  std::vector<double> wall_seconds;
  std::vector<double> cpu_seconds;
  std::vector<double> peak_rss_mb;

  void add(const Outcome& out) {
    seconds.push_back(out.seconds);
    wall_seconds.push_back(out.wall_seconds);
    cpu_seconds.push_back(out.cpu_seconds);
    peak_rss_mb.push_back(out.peak_rss_mb);
  }
  [[nodiscard]] bool empty() const { return seconds.empty(); }
};

int run(const Args& args) {
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to time a build without optimisation ("
              << PERFBENCH_BUILD_TYPE << "); build RelWithDebInfo or Release\n";
    return 2;
  }
  const Widths widths = detect_widths();
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  Tracer tracer(args.trace);
  const sim::SimConfig config = sim_config(args.seed, widths.batch);

  // Set-up, repeated: the median is setup_s.
  Samples setups;
  for (int i = 0; i < kSetups; ++i) {
    Outcome out;
    const Stopwatch watch;
    workload->set_up(config, tracer);
    watch.stop(out);
    setups.add(out);
  }
  const std::uint64_t records = workload->study().raw.size();
  const int wide = workload->wide_width(widths);

  std::cout << "env: {\"workload\": " << perfbench::json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"nproc\": " << widths.nproc
            << ", \"W\": " << widths.batch << ", \"S\": " << widths.shards
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"cars\": " << kCars << ", \"days\": " << kDays
            << ", \"records\": " << records
            << ", \"cells\": " << workload->study().raw.distinct_cells()
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}" << std::endl;

  workload->prepare_references(wide);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto attempt = [&]() -> std::optional<Outcome> {
    ++attempted;
    try {
      Outcome out = workload->call(wide, tracer);
      if (out.ok) return out;
      std::cerr << "perfbench: check failed: " << out.why << "\n";
    } catch (const std::exception& e) {
      std::cerr << "perfbench: call failed: " << e.what() << "\n";
    }
    ++failed;
    return std::nullopt;
  };

  // The first call warms caches and lazy set-up; it is checked, not timed.
  attempt();

  Samples plain;   // untraced calls
  Samples traced;  // traced run: calls with spans on
  const auto loop_start = Clock::now();
  // Past the run length, keep going only to reach kMinSamples, and never
  // past three run lengths (a workload whose calls all fail stops there).
  const auto more = [&] {
    const double elapsed = seconds_since(loop_start);
    if (elapsed < args.seconds) return true;
    return elapsed < 3 * args.seconds && plain.seconds.size() < kMinSamples;
  };
  for (std::size_t i = 0; more(); ++i) {
    // A traced run alternates spans on and off, so its tracing overhead is
    // measured against untraced calls of the same run.
    const bool trace_call = args.trace && i % 2 == 1;
    tracer.set_enabled(trace_call);
    if (const std::optional<Outcome> out = attempt()) {
      (trace_call ? traced : plain).add(*out);
    }
  }
  tracer.set_enabled(args.trace);

  std::string why;
  bool final_ok = false;
  try {
    final_ok = workload->final_check(why);
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (!final_ok) std::cerr << "perfbench: final check failed: " << why << "\n";

  if (plain.empty()) {
    std::cerr << "perfbench: no successful timed call\n";
    return 1;
  }
  const double call_s = perfbench::median(plain.seconds);
  std::cerr << "perfbench: " << plain.seconds.size() << " timed calls at width "
            << wide << ", median " << call_s << " s net of steal:"
            << list(plain.seconds) << "\nperfbench: wall s per call:"
            << list(plain.wall_seconds) << "\nperfbench: CPU s per call:"
            << list(plain.cpu_seconds) << "\nperfbench: MiB peak per call:"
            << list(plain.peak_rss_mb) << "\nperfbench: " << kSetups
            << " set-ups, s net of steal:" << list(setups.seconds)
            << "\nperfbench: wall s per set-up:" << list(setups.wall_seconds)
            << "\n";

  Metrics metrics;
  if (!args.trace) {
    metrics.add("setup_s", perfbench::median(setups.seconds), "s");
    metrics.add("records_per_s", static_cast<double>(records) / call_s,
                "rec/s");
    metrics.add("peak_rss_mb", perfbench::median(plain.peak_rss_mb), "MiB");
    metrics.add("stored_bytes_per_record",
                static_cast<double>(workload->stored_bytes()) /
                    static_cast<double>(records),
                "B/rec");
  } else {
    if (traced.empty()) {
      std::cerr << "perfbench: no traced call\n";
      return 1;
    }
    const double traced_s = perfbench::median(traced.seconds);
    metrics.add("trace.records_per_s", static_cast<double>(records) / traced_s,
                "rec/s");
    metrics.add("trace.overhead_pct", (traced_s / call_s - 1.0) * 100.0, "%");
    census(workload->study(), widths, tracer, metrics);
    metrics.add("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
    if (!args.spans_path.empty()) tracer.write(args.spans_path);
  }

  const bool correct = failed == 0 && final_ok;
  std::cout << perfbench::result_line(correct, attempted, failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
