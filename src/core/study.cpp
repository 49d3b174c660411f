// The batch study driver: one fold, two record sources.
//
// run_study (an in-memory Dataset) and run_study_columnar* (a CCDR2 file
// that is never materialized) run the same fold: fixed chunks of
// car-aligned records, each folded through the §3 clean and then every §4
// pass accumulator, merged in ascending chunk order. Determinism and
// exactness rest on three properties, argued in DESIGN.md §13:
//
//   1. Every chunk boundary is a car boundary — CCDR2 blocks are
//      car-aligned, and Dataset windows are cut forward to the next car — so
//      the accumulators' "other's ids strictly after ours" merge contract
//      holds for the fixed chunk partition.
//   2. The chunk partition is a function of the input alone (never of the
//      thread count), and chunks merge in ascending order — so every pool
//      width folds and merges the identical operation sequence.
//   3. CCDR2 record screening (§7) resets its previous-record state at every
//      block boundary on the sequential path too (see cdr::RecordScreen), so
//      the per-chunk ingest accounting tiles exactly. Dataset records were
//      screened when they were ingested, so that source skips the screen.
//
// Memory: chunks are folded in waves of a few per thread; each wave's
// partials merge into the running total before the next wave starts, so at
// most O(threads) chunk partials are ever alive, each holding run-length
// state sized by distinct values, not records. A CCDR2 file's consumed
// blocks are dropped from the page cache as the sweep passes them.

#include "core/study.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cdr/columnar.h"
#include "cdr/io.h"
#include "core/passes.h"
#include "exec/thread_pool.h"

namespace ccms::core {

namespace {

/// CCDR2 blocks per chunk, and Dataset records per chunk before the cut
/// moves forward to the next car boundary. Both fixed — never derived from
/// the thread count — so the merge sequence (and with it every figure) is
/// identical for every pool width.
constexpr std::size_t kBlocksPerChunk = 4;
constexpr std::size_t kRecordsPerChunk = std::size_t{1} << 16;

/// All per-chunk sweep state: ingest + clean accounting and every pass
/// accumulator.
struct StudySweep {
  cdr::IngestReport ingest;
  cdr::CleanReport clean;
  std::uint32_t max_car = 0;
  bool any_accepted = false;

  PresenceAccumulator presence;
  ConnectedTimeAccumulator connected;
  DaysAccumulator days;
  BusyTimeAccumulator busy;
  HandoverAccumulator handovers;
  CarrierUsageAccumulator carriers;
  ConcurrencyCountsAccumulator concurrency;
  CellSessionsAccumulator cell_sessions;

  StudySweep(int study_days, const net::CellTable& cells, const CellLoad& load,
             const CellMask& busy_cells, const StudyOptions& options)
      : presence(study_days),
        connected(study_days, options.truncation_cap),
        days(study_days),
        busy(&load, options.busy_prb_threshold),
        handovers(&cells, cdr::kJourneyGap),
        carriers(&cells),
        concurrency(study_days, &busy_cells),
        cell_sessions(options.truncation_cap) {}

  /// Sorts the run-length accumulators' pending buffers, so a worker
  /// thread does that work instead of the serial merge.
  void seal() {
    concurrency.flush_pending();
    cell_sessions.flush_pending();
  }

  /// Merges a sweep whose cars are strictly after this one's.
  /// `quarantine_cap` is the global quarantine bound.
  void merge(StudySweep&& other, std::size_t quarantine_cap) {
    ingest.merge(std::move(other.ingest), quarantine_cap);
    clean.input_records += other.clean.input_records;
    clean.hour_artifacts_removed += other.clean.hour_artifacts_removed;
    clean.nonpositive_removed += other.clean.nonpositive_removed;
    clean.implausible_removed += other.clean.implausible_removed;
    max_car = std::max(max_car, other.max_car);
    any_accepted = any_accepted || other.any_accepted;
    presence.merge(std::move(other.presence));
    connected.merge(std::move(other.connected));
    days.merge(std::move(other.days));
    busy.merge(std::move(other.busy));
    handovers.merge(std::move(other.handovers));
    carriers.merge(other.carriers);
    concurrency.merge(std::move(other.concurrency));
    cell_sessions.merge(std::move(other.cell_sessions));
  }
};

/// Per-thread staging: the decoded CCDR2 block and the current car's
/// cleaned records. Kept thread_local rather than inside the chunk
/// accumulators so scratch capacity scales with the thread count, not the
/// chunk count.
struct SweepScratch {
  cdr::ColumnBlock block;
  std::vector<cdr::Connection> car;
};

SweepScratch& scratch_for_thread() {
  thread_local SweepScratch scratch;
  return scratch;
}

/// Feeds the staged car's records to every accumulator and clears the
/// stage.
void flush_car(StudySweep& acc, std::vector<cdr::Connection>& car) {
  if (car.empty()) return;
  const CarId id = car.front().car;
  acc.presence.add_car(id, car);
  acc.connected.add_car(id, car);
  acc.days.add_car(id, car);
  acc.busy.add_car(id, car);
  acc.handovers.add_car(id, car);
  acc.carriers.add_car(id, car);
  acc.concurrency.add_car(id, car);
  acc.cell_sessions.add_car(id, car);
  car.clear();
}

/// Folds one ingested record: clean (§3), then stage it with its car. The
/// accounting mirrors cdr::clean record for record.
void fold_record(StudySweep& acc, std::vector<cdr::Connection>& car,
                 const cdr::Connection& c, const cdr::CleanOptions& clean) {
  acc.any_accepted = true;
  acc.max_car = std::max(acc.max_car, c.car.value);
  if (!cdr::survives_clean(c, clean, acc.clean)) return;
  if (!car.empty() && car.back().car != c.car) flush_car(acc, car);
  car.push_back(c);
}

/// In-memory source: windows of kRecordsPerChunk records of a finalized
/// Dataset, each end cut forward to the next car boundary (a car with more
/// records than a window leaves the following windows empty).
class DatasetSource {
 public:
  DatasetSource(const cdr::Dataset& dataset, const StudyOptions& options)
      : records_(dataset.all()), clean_(options.clean) {}

  [[nodiscard]] std::size_t chunks() const {
    return (records_.size() + kRecordsPerChunk - 1) / kRecordsPerChunk;
  }

  void fold(StudySweep& acc, std::size_t chunk, SweepScratch& s) const {
    const std::size_t end = cut((chunk + 1) * kRecordsPerChunk);
    for (std::size_t i = cut(chunk * kRecordsPerChunk); i < end; ++i) {
      fold_record(acc, s.car, records_[i], clean_);
    }
  }

  void release(std::size_t /*first*/, std::size_t /*last*/) const {}

 private:
  /// The first car boundary at or after record `i`.
  [[nodiscard]] std::size_t cut(std::size_t i) const {
    i = std::min(i, records_.size());
    while (i > 0 && i < records_.size() &&
           records_[i].car == records_[i - 1].car) {
      ++i;
    }
    return i;
  }

  std::span<const cdr::Connection> records_;
  const cdr::CleanOptions& clean_;
};

/// CCDR2 source: kBlocksPerChunk car-aligned blocks per chunk, each
/// decoded and screened (§7) before the clean; the screen/clean order and
/// accounting mirror read_columnar + cdr::clean record for record.
class ColumnarSource {
 public:
  ColumnarSource(const cdr::ColumnarFile& file, const StudyOptions& options,
                 const std::string& label)
      : file_(file), options_(options), label_(label) {
    file_.advise_sequential();
  }

  [[nodiscard]] std::size_t chunks() const {
    return (file_.blocks().size() + kBlocksPerChunk - 1) / kBlocksPerChunk;
  }

  void fold(StudySweep& acc, std::size_t chunk, SweepScratch& s) const {
    cdr::RecordScreen screen(options_.ingest, acc.ingest, label_);
    const std::size_t lo = chunk * kBlocksPerChunk;
    const std::size_t hi =
        std::min(file_.blocks().size(), lo + kBlocksPerChunk);
    for (std::size_t b = lo; b < hi; ++b) {
      if (!screen.enter_block(file_, b, s.block)) continue;
      const std::uint64_t offset = file_.blocks()[b].offset;
      const cdr::ColumnBlock& block = s.block;
      for (std::size_t i = 0; i < block.size(); ++i) {
        const cdr::Connection c{CarId{block.car[i]}, CellId{block.cell[i]},
                                block.start[i], block.duration[i]};
        if (screen.screen(c, offset)) {
          fold_record(acc, s.car, c, options_.clean);
        }
      }
    }
  }

  /// Drops the page-cache pages of chunks [first, last).
  void release(std::size_t first, std::size_t last) const {
    const std::size_t n = file_.blocks().size();
    file_.drop_consumed(std::min(n, first * kBlocksPerChunk),
                        std::min(n, last * kBlocksPerChunk));
  }

 private:
  const cdr::ColumnarFile& file_;
  const StudyOptions& options_;
  const std::string& label_;
};

/// Fig 11's busy-radio filter as a CellMask: the cells cluster_busy_cells
/// keeps, `load.weekly_mean(c) >= threshold`, built in parallel. Ids at or
/// past load.cell_count() have weekly mean 0.
CellMask busy_cell_mask(const CellLoad& load, double threshold,
                        exec::ThreadPool& pool) {
  constexpr std::size_t kCellsPerTask = 4096;
  CellMask mask;
  mask.keep.resize(load.cell_count());
  mask.rest = 0.0 >= threshold;
  const std::size_t n = mask.keep.size();
  pool.parallel_for((n + kCellsPerTask - 1) / kCellsPerTask,
                    [&](std::size_t task) {
                      const std::size_t end =
                          std::min(n, (task + 1) * kCellsPerTask);
                      for (std::size_t c = task * kCellsPerTask; c < end; ++c) {
                        const CellId cell{static_cast<std::uint32_t>(c)};
                        mask.keep[c] = load.weekly_mean(cell) >= threshold;
                      }
                    });
  return mask;
}

/// The one fold: every chunk of `source`, in waves, merged in ascending
/// order into one sweep, then finalized into the report. `study_days` and
/// `fleet_size` are the input's declared geometry; `ingest` is the
/// accounting of the stages before the fold (open-time faults for CCDR2,
/// empty for a Dataset).
template <typename Source>
StudyReport run_fold(const Source& source, int study_days,
                     std::uint32_t fleet_size, const net::CellTable& cells,
                     const CellLoad& load, const StudyOptions& options,
                     cdr::IngestReport ingest) {
  exec::ThreadPool pool(options.threads);
  const std::size_t chunks = source.chunks();
  const std::size_t cap = options.ingest.quarantine_cap;

  // Fig 11 is the fold's only concurrency reader, so the concurrency pass
  // counts only the cells its busy-radio filter keeps.
  const CellMask busy_cells =
      busy_cell_mask(load, options.cluster_load_threshold, pool);
  StudySweep total(study_days, cells, load, busy_cells, options);
  // Fold in waves of a few chunks per thread; merge each wave (ascending)
  // into the running total before the next starts. The wave width only
  // schedules work — the fold/merge sequence, hence the result, is the
  // same for every width.
  const std::size_t wave =
      std::max<std::size_t>(std::size_t{2} * static_cast<std::size_t>(
                                                 std::max(1, pool.size())),
                            2);
  std::vector<std::optional<StudySweep>> partials(std::min(wave, chunks));
  for (std::size_t first = 0; first < chunks; first += wave) {
    const std::size_t count = std::min(wave, chunks - first);
    pool.parallel_for(count, [&](std::size_t i) {
      StudySweep acc(study_days, cells, load, busy_cells, options);
      SweepScratch& s = scratch_for_thread();
      s.car.clear();  // a strict-mode throw can leave a car staged
      source.fold(acc, first + i, s);
      flush_car(acc, s.car);
      acc.seal();
      partials[i].emplace(std::move(acc));
    });
    for (std::size_t i = 0; i < count; ++i) {
      total.merge(std::move(*partials[i]), cap);
      partials[i].reset();
    }
    source.release(first, first + count);
  }

  // The fleet-size bump Dataset::finalize applies: accepted records can
  // name cars beyond the header's declared fleet (a finalized Dataset
  // already covers its own cars, so this never fires for that source).
  if (total.any_accepted && fleet_size < total.max_car + 1) {
    fleet_size = total.max_car + 1;
  }

  StudyReport report;
  ingest.merge(std::move(total.ingest), cap);
  report.ingest = std::move(ingest);
  report.clean = total.clean;
  report.presence = total.presence.finalize(fleet_size);
  report.connected_time = std::move(total.connected).finalize();
  report.days = std::move(total.days).finalize();
  report.busy_time = std::move(total.busy).finalize();
  report.segmentation =
      segment_cars(report.days, report.busy_time, options.segmentation);
  report.cell_sessions = std::move(total.cell_sessions).finalize();
  report.handovers = std::move(total.handovers).finalize();
  report.carriers = total.carriers.finalize();

  // The grid holds only busy cells; cluster_busy_cells re-applies the same
  // filter and keeps all of them.
  const auto [keys, counts] = std::move(total.concurrency).take_counts();
  const ConcurrencyGrid grid =
      ConcurrencyGrid::from_bin_counts(keys, counts, study_days);
  report.clusters =
      cluster_busy_cells(grid, load, options.cluster_load_threshold,
                         options.cluster_k, options.cluster_seed);
  return report;
}

StudyReport run_dataset(const cdr::Dataset& raw, const net::CellTable& cells,
                        const CellLoad& load, const StudyOptions& options,
                        cdr::IngestReport ingest) {
  return run_fold(DatasetSource(raw, options), raw.study_days(),
                  raw.fleet_size(), cells, load, options, std::move(ingest));
}

StudyReport run_columnar_impl(const cdr::ColumnarFile& file,
                              const net::CellTable& cells, const CellLoad& load,
                              const StudyOptions& options,
                              cdr::IngestReport base,
                              const std::string& label) {
  base.mode = options.ingest.mode;
  if (file.study_days() <= 0) {
    // A header without a day count (hand-built or zeroed) leaves the study
    // geometry unknown until every record is seen, which is exactly what
    // streaming cannot do. Such a file is degenerate — materialize it (its
    // finalize() derives study_days) and fold the Dataset instead.
    const cdr::Dataset raw =
        cdr::materialize_columnar(file, options.ingest, base, label);
    return run_dataset(raw, cells, load, options, std::move(base));
  }
  return run_fold(ColumnarSource(file, options, label), file.study_days(),
                  file.fleet_size(), cells, load, options, std::move(base));
}

}  // namespace

StudyReport run_study(const cdr::Dataset& raw, const net::CellTable& cells,
                      const CellLoad& load, const StudyOptions& options) {
  if (!raw.finalized()) {
    throw std::invalid_argument(
        "run_study: the dataset is not finalized (call Dataset::finalize())");
  }
  return run_dataset(raw, cells, load, options, {});
}

StudyReport run_study_csv(const std::string& path, const net::CellTable& cells,
                          const CellLoad& load, const StudyOptions& options) {
  cdr::IngestReport ingest;
  const cdr::Dataset raw = cdr::read_csv(path, options.ingest, ingest);
  StudyReport report = run_study(raw, cells, load, options);
  report.ingest = std::move(ingest);
  return report;
}

StudyReport run_study_columnar(const cdr::ColumnarFile& file,
                               const net::CellTable& cells,
                               const CellLoad& load,
                               const StudyOptions& options,
                               cdr::IngestReport open_report) {
  return run_columnar_impl(file, cells, load, options, std::move(open_report),
                           "<columnar>");
}

StudyReport run_study_columnar(const std::string& path,
                               const net::CellTable& cells,
                               const CellLoad& load,
                               const StudyOptions& options) {
  cdr::IngestReport base;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::open(path, options.ingest, base);
  return run_columnar_impl(file, cells, load, options, std::move(base), path);
}

StudyReport run_study_columnar_buffer(std::string_view bytes,
                                      const net::CellTable& cells,
                                      const CellLoad& load,
                                      const StudyOptions& options,
                                      const std::string& label) {
  cdr::IngestReport base;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::from_buffer(bytes, options.ingest, base, label);
  return run_columnar_impl(file, cells, load, options, std::move(base), label);
}

// --- Report identity --------------------------------------------------------

bool study_reports_identical(const StudyReport& a, const StudyReport& b,
                             std::string* why) {
  // One defaulted operator== per member: every field of every member
  // compares, so a new field cannot escape the check.
  const char* differing =
        a.ingest != b.ingest                 ? "ingest"
      : a.clean != b.clean                   ? "clean"
      : a.presence != b.presence             ? "presence"
      : a.connected_time != b.connected_time ? "connected_time"
      : a.days != b.days                     ? "days"
      : a.busy_time != b.busy_time           ? "busy_time"
      : a.segmentation != b.segmentation     ? "segmentation"
      : a.cell_sessions != b.cell_sessions   ? "cell_sessions"
      : a.handovers != b.handovers           ? "handovers"
      : a.carriers != b.carriers             ? "carriers"
      : a.clusters != b.clusters             ? "clusters"
      : nullptr;
  if (differing != nullptr && why != nullptr) *why = differing;
  return differing == nullptr;
}

}  // namespace ccms::core
