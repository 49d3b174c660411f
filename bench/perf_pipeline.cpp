// google-benchmark microbenchmarks of the analysis pipeline itself: how fast
// the library chews through CDRs. (The per-figure binaries measure fidelity;
// this one measures throughput.) Besides the google-benchmark table, the
// binary emits machine-readable BENCH_pipeline.json (end-to-end batch pass:
// records/sec, wall seconds, peak RSS), BENCH_batch.json (full run_study
// swept over executor widths 1,2,4,..,--threads with speedup_vs_1t) and
// BENCH_ingest.json (front-of-pipeline generate/ingest/finalize/analyze
// phase sweep at widths 1 and --threads, with a bitwise-determinism check
// across widths) for CI regression diffing. Schemas: bench/BENCH_SCHEMA.md.
//
// Flags / env: --threads N (sweep ceiling, default 8, 0 = hardware
// concurrency — resolved before it reaches any JSON; stripped before
// google-benchmark sees the argv), CCMS_BENCH_OUT (BENCH_pipeline.json
// path), CCMS_BENCH_BATCH_OUT (BENCH_batch.json path),
// CCMS_BENCH_INGEST_OUT (BENCH_ingest.json path), CCMS_CARS / CCMS_DAYS
// (ingest-sweep fixture size).
//
// Out-of-core batch mode (the paper-scale path): `--out-of-core` with
// `--cars N --days D` streams an N-car, D-day study through the CCDR2
// pipeline — per-car generation -> external sort -> columnar file ->
// run_study_columnar — without ever materializing the trace, and writes
// BENCH_batch.json with mode "out_of_core" plus peak-RSS / bytes-spilled
// columns. `--data-dir DIR` places the spill runs and the columnar file
// (default ./ccms_bench_data); `--assert-rss` makes the process exit
// non-zero if peak RSS exceeds 25% of the in-memory AoS footprint (the CI
// scale job's ceiling). In this mode the microbenchmarks and the other
// JSON artifacts are skipped so ru_maxrss measures the out-of-core run
// alone.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/cell_sessions.h"
#include "core/days_histogram.h"

#include "cdr/clean.h"
#include "cdr/columnar.h"
#include "cdr/io.h"
#include "cdr/session.h"
#include "exec/external_sort.h"
#include "exec/thread_pool.h"
#include "core/busy_time.h"
#include "core/concurrency.h"
#include "core/connected_time.h"
#include "core/presence.h"
#include "core/study.h"
#include "sim/simulator.h"
#include "stats/kmeans.h"
#include "stats/p2_quantile.h"
#include "stats/quantile.h"

namespace {

using namespace ccms;

const sim::Study& shared_study() {
  static const sim::Study study = [] {
    sim::SimConfig config;
    config.fleet.size = 400;
    config.study_days = 28;
    config.topology.grid_width = 16;
    config.topology.grid_height = 16;
    return sim::simulate(config);
  }();
  return study;
}

void BM_Simulate(benchmark::State& state) {
  sim::SimConfig config;
  config.fleet.size = static_cast<int>(state.range(0));
  config.study_days = 14;
  config.topology.grid_width = 16;
  config.topology.grid_height = 16;
  std::size_t records = 0;
  for (auto _ : state) {
    const sim::Study study = sim::simulate(config);
    records = study.raw.size();
    benchmark::DoNotOptimize(records);
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(records * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Simulate)->Arg(100)->Arg(400);

void BM_Clean(benchmark::State& state) {
  const sim::Study& study = shared_study();
  for (auto _ : state) {
    cdr::CleanReport report;
    const cdr::Dataset cleaned = cdr::clean(study.raw, {}, report);
    benchmark::DoNotOptimize(cleaned.size());
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(study.raw.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Clean);

void BM_SessionAggregation(benchmark::State& state) {
  const sim::Study& study = shared_study();
  const auto gap = static_cast<time::Seconds>(state.range(0));
  for (auto _ : state) {
    std::size_t sessions = 0;
    study.raw.for_each_car(
        [&](CarId, std::span<const cdr::Connection> conns) {
          sessions += cdr::aggregate_sessions(conns, gap).size();
        });
    benchmark::DoNotOptimize(sessions);
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(study.raw.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionAggregation)->Arg(30)->Arg(600);

void BM_UnionConnectedTime(benchmark::State& state) {
  const sim::Study& study = shared_study();
  for (auto _ : state) {
    const auto ct = core::analyze_connected_time(study.raw);
    benchmark::DoNotOptimize(ct.mean_full);
  }
}
BENCHMARK(BM_UnionConnectedTime);

void BM_Presence(benchmark::State& state) {
  const sim::Study& study = shared_study();
  for (auto _ : state) {
    const auto presence = core::analyze_presence(study.raw);
    benchmark::DoNotOptimize(presence.cars_overall.mean);
  }
}
BENCHMARK(BM_Presence);

void BM_BusyTime(benchmark::State& state) {
  const sim::Study& study = shared_study();
  const auto load = core::CellLoad::from_background(study.background);
  for (auto _ : state) {
    const auto busy = core::analyze_busy_time(study.raw, load);
    benchmark::DoNotOptimize(busy.fraction_over_half);
  }
}
BENCHMARK(BM_BusyTime);

void BM_ConcurrencyGrid(benchmark::State& state) {
  const sim::Study& study = shared_study();
  for (auto _ : state) {
    const auto grid = core::ConcurrencyGrid::build(study.raw);
    benchmark::DoNotOptimize(grid.cells().size());
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(study.raw.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrencyGrid);

void BM_KMeans96d(benchmark::State& state) {
  // Fig 11's workload shape: N 96-dim vectors, k = 2.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v(96);
    const double level = i % 5 == 0 ? 8.0 : 1.5;
    for (auto& x : v) x = level + rng.normal(0, 0.4);
    points.push_back(std::move(v));
  }
  for (auto _ : state) {
    util::Rng krng(11);
    const auto result = stats::kmeans(points, {.k = 2}, krng);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeans96d)->Arg(100)->Arg(1000);

void BM_QuantileExact(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> sample(static_cast<std::size_t>(state.range(0)));
  for (auto& x : sample) x = rng.lognormal_median(105.0, 1.2);
  for (auto _ : state) {
    auto copy = sample;
    const stats::EmpiricalDistribution dist(std::move(copy));
    benchmark::DoNotOptimize(dist.quantile(0.73));
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(sample.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuantileExact)->Arg(100000)->Arg(1000000);

void BM_QuantileP2(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> sample(static_cast<std::size_t>(state.range(0)));
  for (auto& x : sample) x = rng.lognormal_median(105.0, 1.2);
  for (auto _ : state) {
    stats::P2Quantile est(0.73);
    for (const double x : sample) est.add(x);
    benchmark::DoNotOptimize(est.value());
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(sample.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuantileP2)->Arg(100000)->Arg(1000000);

// One timed end-to-end batch pass (clean + the Fig 2/3/6/9 analyzers) over
// the shared study, written to BENCH_pipeline.json. The google-benchmark
// table remains the per-stage source of truth; this artifact is the single
// number CI tracks across commits.
void write_pipeline_json() {
  const sim::Study& study = shared_study();
  const bench::Stopwatch timer;
  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned = cdr::clean(study.raw, {}, clean_report);
  const auto presence = core::analyze_presence(cleaned);
  const auto connected = core::analyze_connected_time(cleaned, 600);
  const auto days = core::analyze_days_on_network(cleaned);
  const auto sessions = core::analyze_cell_sessions(cleaned, 600);
  const double wall_s = timer.seconds();
  benchmark::DoNotOptimize(presence.cars_fraction.size());
  benchmark::DoNotOptimize(connected.full.size());
  benchmark::DoNotOptimize(days.days_per_car.size());
  benchmark::DoNotOptimize(sessions.median);

  const auto records = static_cast<std::uint64_t>(study.raw.size());
  const std::string json =
      bench::JsonObject()
          .add("bench", "perf_pipeline")
          .add("records", records)
          .add("cars", study.config.fleet.size)
          .add("study_days", study.config.study_days)
          .add("wall_s", wall_s)
          .add("records_per_s",
               wall_s > 0 ? static_cast<double>(records) / wall_s : 0)
          .add("peak_rss_bytes", bench::peak_rss_bytes())
          .dump();
  const char* out = std::getenv("CCMS_BENCH_OUT");
  bench::write_bench_json(out != nullptr ? out : "BENCH_pipeline.json", json);
}

// Full run_study (every §4 analysis) swept over executor widths
// 1, 2, 4, .., max_threads, written to BENCH_batch.json. speedup_vs_1t is
// the scaling curve CI tracks; the report is bitwise identical across rows
// by construction, so only time varies.
void write_batch_json(int max_threads) {
  const sim::Study& study = shared_study();
  const auto load = core::CellLoad::from_background(study.background);
  const auto records = static_cast<std::uint64_t>(study.raw.size());

  std::vector<int> widths;
  for (int t = 1; t < max_threads; t *= 2) widths.push_back(t);
  widths.push_back(max_threads);

  bench::JsonArray rows;
  double wall_1t = 0;
  std::printf("run_study sweep: threads      wall_s    records/s   speedup\n");
  for (const int threads : widths) {
    core::StudyOptions options;
    options.threads = threads;
    const bench::Stopwatch timer;
    const core::StudyReport report =
        core::run_study(study.raw, study.topology.cells(), load, options);
    const double wall_s = timer.seconds();
    benchmark::DoNotOptimize(report.carriers.car_count);
    if (threads == 1) wall_1t = wall_s;
    const double speedup = wall_s > 0 ? wall_1t / wall_s : 0;
    std::printf("                %7d %11.3f %12.0f %8.2fx\n", threads, wall_s,
                wall_s > 0 ? static_cast<double>(records) / wall_s : 0,
                speedup);
    rows.push(bench::JsonObject()
                  .add("threads", threads)
                  .add("wall_s", wall_s)
                  .add("records_per_s",
                       wall_s > 0 ? static_cast<double>(records) / wall_s : 0)
                  .add("speedup_vs_1t", speedup)
                  .dump());
  }

  const auto aos_bytes = records * sizeof(cdr::Connection);
  const std::string json =
      bench::JsonObject()
          .add("bench", "perf_batch")
          .add("mode", "in_memory")
          .add("records", records)
          .add("cars", study.config.fleet.size)
          .add("study_days", study.config.study_days)
          .add("aos_bytes", aos_bytes)
          .add("rss_budget_bytes", std::uint64_t{0})
          .add("bytes_spilled", std::uint64_t{0})
          .add("spill_runs", std::uint64_t{0})
          .add("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
          .add("peak_rss_bytes", bench::peak_rss_bytes())
          .raw("thread_runs", rows.dump())
          .dump();
  const char* out = std::getenv("CCMS_BENCH_BATCH_OUT");
  bench::write_bench_json(out != nullptr ? out : "BENCH_batch.json", json);
}

// Paper-scale batch on one box: stream-generate `cars` x `days`, external-
// sort into a CCDR2 columnar file, then run the whole §4 study out of core
// at widths 1 and max_threads, asserting the reports match bitwise. Peak
// memory never holds the trace: generation emits one car at a time into the
// sorter's bounded buffer, and the study streams decoded blocks. Writes
// BENCH_batch.json with mode "out_of_core". Returns false if the width
// sweep diverges or (with assert_rss) the RSS ceiling is exceeded.
bool write_batch_json_out_of_core(int max_threads, int cars, int days,
                                  const std::string& data_dir,
                                  bool assert_rss) {
  namespace fs = std::filesystem;
  fs::create_directories(data_dir);

  sim::SimConfig config;
  config.fleet.size = cars;
  config.study_days = days;
  // Scale the grid with the fleet so per-cell load stays in the paper's
  // regime; cap it so the topology/load tables stay a small fraction of
  // the RSS budget.
  const int grid = std::clamp(
      static_cast<int>(std::sqrt(static_cast<double>(cars) / 2.5)), 16, 128);
  config.topology.grid_width = grid;
  config.topology.grid_height = grid;

  std::printf("out-of-core batch: %d cars x %d days (grid %dx%d)\n", cars,
              days, grid, grid);
  const bench::Stopwatch world_timer;
  const sim::StreamSim sim(config);
  std::printf("  world built (%zu cars, %zu cells): %.1fs\n",
              sim.fleet().size(), sim.topology().cells().size(),
              world_timer.seconds());

  // Phase 1: per-car generation -> external sort -> columnar file. The
  // sorter's spill buffer and the writer's pending block are the only
  // record storage alive.
  const std::string columnar_path = data_dir + "/ccms_batch.ccdr2";
  std::uint64_t bytes_spilled = 0;
  std::uint64_t spill_runs = 0;
  std::uint64_t records = 0;
  const bench::Stopwatch gen_timer;
  {
    exec::ExternalSorter<cdr::Connection, cdr::ByCarThenStart> sorter(
        {.spill_dir = data_dir, .run_records = exec::kDefaultRunRecords,
         .threads = 1});
    std::vector<cdr::Connection> raw_scratch;
    std::vector<cdr::Connection> car_records;
    for (std::size_t i = 0; i < sim.fleet().size(); ++i) {
      car_records.clear();
      sim.emit_car(i, raw_scratch, car_records);
      for (const cdr::Connection& c : car_records) sorter.add(c);
    }
    std::ofstream out(columnar_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "[bench] cannot open " << columnar_path << "\n";
      return false;
    }
    cdr::ColumnarWriter writer(out, static_cast<std::uint32_t>(cars), days);
    // merge() spills the tail run before it emits and deletes every run
    // file before it returns, so the run count is read while it emits.
    sorter.merge([&](const cdr::Connection& c) {
      spill_runs = sorter.run_count();
      writer.add(c);
    });
    records = writer.finish();
    bytes_spilled = sorter.bytes_spilled();
  }
  const double gen_s = gen_timer.seconds();
  const auto columnar_bytes =
      static_cast<std::uint64_t>(fs::file_size(columnar_path));
  std::printf(
      "  generate+sort+write: %.1fs (%llu records, %llu spill bytes in %llu "
      "runs, %llu columnar bytes)\n",
      gen_s, static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(bytes_spilled),
      static_cast<unsigned long long>(spill_runs),
      static_cast<unsigned long long>(columnar_bytes));

  // Phase 2: the full §4 study, streamed from the columnar file at widths
  // 1 and max_threads. Reports must match bitwise (the determinism
  // acceptance gate).
  const auto load = core::CellLoad::from_background(sim.background());
  std::vector<int> widths = {1};
  if (max_threads > 1) widths.push_back(max_threads);

  bench::JsonArray rows;
  bool deterministic = true;
  double wall_1t = 0;
  std::optional<core::StudyReport> golden;
  std::printf("run_study_columnar:  threads      wall_s    records/s\n");
  for (const int threads : widths) {
    core::StudyOptions options;
    options.threads = threads;
    // Re-reading our own trace: simulated traces can contain legitimate
    // exact duplicates, so the duplicate screen stays off.
    options.ingest.check_duplicates = false;
    const bench::Stopwatch timer;
    core::StudyReport report = core::run_study_columnar(
        columnar_path, sim.topology().cells(), load, options);
    const double wall_s = timer.seconds();
    benchmark::DoNotOptimize(report.carriers.car_count);
    if (threads == widths.front()) {
      wall_1t = wall_s;
      golden.emplace(std::move(report));
    } else {
      std::string why;
      if (!core::study_reports_identical(*golden, report, &why)) {
        std::cerr << "[bench] OUT-OF-CORE REPORT DIVERGES ACROSS WIDTHS: "
                  << why << "\n";
        deterministic = false;
      }
    }
    std::printf("                     %7d %11.1f %12.0f\n", threads, wall_s,
                wall_s > 0 ? static_cast<double>(records) / wall_s : 0);
    rows.push(bench::JsonObject()
                  .add("threads", threads)
                  .add("wall_s", wall_s)
                  .add("records_per_s",
                       wall_s > 0 ? static_cast<double>(records) / wall_s : 0)
                  .add("speedup_vs_1t", wall_s > 0 ? wall_1t / wall_s : 0)
                  .dump());
  }

  const std::uint64_t aos_bytes = records * sizeof(cdr::Connection);
  const std::uint64_t rss_budget = aos_bytes / 4;  // 25% of the AoS trace
  const std::uint64_t peak_rss = bench::peak_rss_bytes();
  const bool rss_ok = peak_rss <= rss_budget;
  std::printf("  peak RSS %.2f GiB vs budget %.2f GiB (25%% of %.2f GiB AoS)"
              " -> %s\n",
              static_cast<double>(peak_rss) / (1 << 30),
              static_cast<double>(rss_budget) / (1 << 30),
              static_cast<double>(aos_bytes) / (1 << 30),
              rss_ok ? "within budget" : "OVER BUDGET");

  const std::string json =
      bench::JsonObject()
          .add("bench", "perf_batch")
          .add("mode", "out_of_core")
          .add("records", records)
          .add("cars", cars)
          .add("study_days", days)
          .add("aos_bytes", aos_bytes)
          .add("rss_budget_bytes", rss_budget)
          .add("rss_within_budget", rss_ok)
          .add("bytes_spilled", bytes_spilled)
          .add("spill_runs", spill_runs)
          .add("columnar_bytes", columnar_bytes)
          .add("generate_sort_write_s", gen_s)
          .add("deterministic", deterministic)
          .add("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
          .add("peak_rss_bytes", peak_rss)
          .raw("thread_runs", rows.dump())
          .dump();
  const char* out_env = std::getenv("CCMS_BENCH_BATCH_OUT");
  bench::write_bench_json(
      out_env != nullptr ? out_env : "BENCH_batch.json", json);

  std::error_code ec;
  fs::remove(columnar_path, ec);  // spill runs were removed by the merge
  if (assert_rss && !rss_ok) {
    std::cerr << "[bench] PEAK RSS EXCEEDS THE 25% OUT-OF-CORE BUDGET\n";
    return false;
  }
  return deterministic;
}

// Front-of-pipeline phase sweep — generate / ingest / finalize / analyze —
// at executor widths 1 and max_threads, written to BENCH_ingest.json. Each
// phase row reports wall seconds and records/s; the top-level
// `deterministic` flag asserts the PR invariant that every phase's output at
// every width is bitwise identical to the 1-thread run. Fixture size comes
// from CCMS_CARS / CCMS_DAYS (defaults 2000 cars, 28 days). Returns the
// determinism verdict so main() can fail the run on a mismatch.
bool write_ingest_json(int max_threads) {
  const char* cars_env = std::getenv("CCMS_CARS");
  const char* days_env = std::getenv("CCMS_DAYS");
  const int cars = cars_env != nullptr ? std::atoi(cars_env) : 2000;
  const int days = days_env != nullptr ? std::atoi(days_env) : 28;

  std::vector<int> widths = {1};
  if (max_threads > 1) widths.push_back(max_threads);

  bench::JsonArray rows;
  bool deterministic = true;
  std::string golden_raw;    // width-1 generated trace, serialized
  std::string golden_final;  // width-1 re-finalized shuffled dataset
  std::uint64_t records = 0;

  std::printf(
      "front-of-pipeline sweep: threads      phase      wall_s    records/s\n");
  for (const int w : widths) {
    sim::SimConfig config;
    config.fleet.size = cars;
    config.study_days = days;
    config.topology.grid_width = 24;
    config.topology.grid_height = 24;
    config.threads = w;

    const bench::Stopwatch gen_timer;
    const sim::Study study = sim::simulate(config);
    const double gen_s = gen_timer.seconds();
    records = static_cast<std::uint64_t>(study.raw.size());

    const std::string bytes = cdr::write_binary_buffer(study.raw);

    cdr::IngestOptions options;
    options.threads = w;
    // Re-loading our own trace: simulated traces can contain legitimate
    // exact duplicates, so the duplicate screen stays off for a bitwise
    // round trip.
    options.check_duplicates = false;
    cdr::IngestReport report;
    const bench::Stopwatch ingest_timer;
    const cdr::Dataset ingested =
        cdr::read_binary_buffer(bytes, options, report, "bench");
    const double ingest_s = ingest_timer.seconds();

    // Deterministically shuffled copy so finalize() has real sorting work
    // (the simulator's output is already nearly in (car, start) order).
    std::vector<cdr::Connection> shuffled(study.raw.all().begin(),
                                          study.raw.all().end());
    util::Rng shuffle_rng(42);
    shuffle_rng.shuffle(shuffled);
    cdr::Dataset unsorted;
    unsorted.set_fleet_size(study.raw.fleet_size());
    unsorted.set_study_days(study.raw.study_days());
    unsorted.reserve(shuffled.size());
    unsorted.add(shuffled);
    exec::ThreadPool pool(w);
    const bench::Stopwatch fin_timer;
    unsorted.finalize(pool);
    const double fin_s = fin_timer.seconds();

    const auto load = core::CellLoad::from_background(study.background);
    core::StudyOptions study_options;
    study_options.threads = w;
    const bench::Stopwatch an_timer;
    const core::StudyReport sr =
        core::run_study(study.raw, study.topology.cells(), load, study_options);
    const double an_s = an_timer.seconds();
    benchmark::DoNotOptimize(sr.carriers.car_count);

    // Bitwise determinism: the generated trace, the ingested round-trip and
    // the re-finalized dataset must serialize to the width-1 bytes exactly.
    const std::string final_bytes = cdr::write_binary_buffer(unsorted);
    const std::string ingested_bytes = cdr::write_binary_buffer(ingested);
    if (w == widths.front()) {
      golden_raw = bytes;
      golden_final = final_bytes;
    } else if (bytes != golden_raw || final_bytes != golden_final) {
      deterministic = false;
    }
    if (ingested_bytes != bytes || final_bytes != bytes) {
      deterministic = false;
    }

    const auto row = [&](const char* phase, double wall_s, std::uint64_t n) {
      std::printf("                         %7d %10s %11.3f %12.0f\n", w,
                  phase, wall_s,
                  wall_s > 0 ? static_cast<double>(n) / wall_s : 0);
      rows.push(bench::JsonObject()
                    .add("threads", w)
                    .add("phase", phase)
                    .add("wall_s", wall_s)
                    .add("records_per_s",
                         wall_s > 0 ? static_cast<double>(n) / wall_s : 0)
                    .dump());
    };
    row("generate", gen_s, records);
    row("ingest", ingest_s,
        static_cast<std::uint64_t>(report.records_accepted));
    row("finalize", fin_s, records);
    row("analyze", an_s, records);
  }

  const std::string json =
      bench::JsonObject()
          .add("bench", "perf_ingest")
          .add("records", records)
          .add("cars", cars)
          .add("study_days", days)
          .add("threads_max", max_threads)
          .add("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
          .add("deterministic", deterministic)
          .add("peak_rss_bytes", bench::peak_rss_bytes())
          .raw("phase_runs", rows.dump())
          .dump();
  const char* out = std::getenv("CCMS_BENCH_INGEST_OUT");
  bench::write_bench_json(out != nullptr ? out : "BENCH_ingest.json", json);
  if (!deterministic) {
    std::cerr << "[bench] FRONT-OF-PIPELINE OUTPUT DIVERGES ACROSS THREAD "
                 "WIDTHS\n";
  }
  return deterministic;
}

// Our flags, consumed before google-benchmark parses (and would reject)
// them. threads is returned *resolved*: `--threads 0` means hardware
// concurrency, so every BENCH_*.json records the real width it ran at,
// never a literal 0.
struct BenchFlags {
  int threads = 8;
  int cars = 0;  ///< 0 = use each artifact's own default fixture
  int days = 0;
  bool out_of_core = false;
  bool assert_rss = false;
  std::string data_dir = "ccms_bench_data";
};

BenchFlags strip_flags(int& argc, char** argv) {
  BenchFlags flags;
  int w = 1;
  const auto int_flag = [&](const char* name, int r, int& value) {
    const std::size_t len = std::strlen(name);
    if (std::strcmp(argv[r], name) == 0 && r + 1 < argc) {
      value = std::atoi(argv[r + 1]);
      return 2;
    }
    if (std::strncmp(argv[r], name, len) == 0 && argv[r][len] == '=') {
      value = std::atoi(argv[r] + len + 1);
      return 1;
    }
    return 0;
  };
  for (int r = 1; r < argc;) {
    int used = int_flag("--threads", r, flags.threads);
    if (used == 0) used = int_flag("--cars", r, flags.cars);
    if (used == 0) used = int_flag("--days", r, flags.days);
    if (used != 0) {
      r += used;
      continue;
    }
    if (std::strcmp(argv[r], "--out-of-core") == 0) {
      flags.out_of_core = true;
      ++r;
      continue;
    }
    if (std::strcmp(argv[r], "--assert-rss") == 0) {
      flags.assert_rss = true;
      ++r;
      continue;
    }
    if (std::strcmp(argv[r], "--data-dir") == 0 && r + 1 < argc) {
      flags.data_dir = argv[r + 1];
      r += 2;
      continue;
    }
    if (std::strncmp(argv[r], "--data-dir=", 11) == 0) {
      flags.data_dir = argv[r] + 11;
      ++r;
      continue;
    }
    argv[w++] = argv[r++];
  }
  argc = w;
  if (flags.threads < 0) flags.threads = 8;
  flags.threads = exec::ThreadPool::resolve_threads(flags.threads);
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = strip_flags(argc, argv);
  if (flags.out_of_core) {
    // Out-of-core mode runs alone: ru_maxrss is a process-lifetime maximum,
    // so the in-memory fixtures and microbenchmarks would mask the number
    // the 25% budget is asserting on.
    const bool ok = write_batch_json_out_of_core(
        flags.threads, flags.cars > 0 ? flags.cars : 1000000,
        flags.days > 0 ? flags.days : 90, flags.data_dir, flags.assert_rss);
    return ok ? 0 : 1;
  }
  write_pipeline_json();
  write_batch_json(flags.threads);
  const bool deterministic = write_ingest_json(flags.threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return deterministic ? 0 : 1;
}
