// Whole-study driver: the paper's pipeline end to end.
//
// Feed it a raw CDR dataset (ours or yours), the cell table and the measured
// cell-load grid; it runs §3's cleaning and every §4 analysis and returns
// one report. Individual analyses remain callable directly for custom
// pipelines.
#pragma once

#include <string>
#include <string_view>

#include "cdr/clean.h"
#include "cdr/columnar.h"
#include "cdr/integrity.h"
#include "core/busy_time.h"
#include "core/carrier_usage.h"
#include "core/cell_sessions.h"
#include "core/clustering.h"
#include "core/concurrency.h"
#include "core/connected_time.h"
#include "core/days_histogram.h"
#include "core/handover.h"
#include "core/load_view.h"
#include "core/presence.h"
#include "core/segmentation.h"

namespace ccms::core {

/// Knobs of the full pipeline (defaults are the paper's choices).
struct StudyOptions {
  /// Ingest hardening knobs, used by the from-file entry points. Defaults
  /// to lenient: one corrupt row must not kill a 90-day study.
  cdr::IngestOptions ingest{.mode = cdr::ParseMode::kLenient};
  cdr::CleanOptions clean;
  std::int32_t truncation_cap = 600;     ///< §3 per-cell truncation
  double busy_prb_threshold = 0.80;      ///< §4.3 busy (cell, bin)
  SegmentationConfig segmentation;       ///< Table 2 thresholds
  double cluster_load_threshold = 0.70;  ///< Fig 11 busy-radio filter
  int cluster_k = 2;                     ///< Fig 11 k
  std::uint64_t cluster_seed = 1;
  /// Executor width for the study's fold (see exec::ThreadPool):
  /// 1 = sequential (default), 0 = hardware_concurrency, N = N threads.
  /// The report is bitwise identical for every value.
  int threads = 1;
};

/// Everything §4 computes, plus per-stage integrity accounting: how many
/// records each stage read, dropped and repaired on the way to the figures.
struct StudyReport {
  cdr::IngestReport ingest;  ///< filled by the from-file entry points
  cdr::CleanReport clean;
  DailyPresence presence;         // Fig 2, Table 1
  ConnectedTime connected_time;   // Fig 3
  DaysOnNetwork days;             // Fig 6
  BusyTime busy_time;             // Fig 7
  Segmentation segmentation;      // Table 2
  CellSessionStats cell_sessions; // Fig 9
  HandoverStats handovers;        // §4.5
  CarrierUsage carriers;          // Table 3
  ConcurrencyClusters clusters;   // Fig 11
};

/// Runs cleaning + every analysis. `raw` may contain artifacts; each record
/// is cleaned per `options.clean` (§3) on its way into the analyses, without
/// copying the dataset. `raw` must be finalized (every producer — simulate,
/// the cdr readers, anonymize — returns it so); throws std::invalid_argument
/// otherwise. The report's ingest accounting stays default-constructed: the
/// records were screened when they were ingested.
[[nodiscard]] StudyReport run_study(const cdr::Dataset& raw,
                                    const net::CellTable& cells,
                                    const CellLoad& load,
                                    const StudyOptions& options = {});

/// The out-of-core pipeline: streams an open CCDR2 file block by block
/// through run_study's fold, never materializing a Dataset. Peak memory is
/// bounded by the decode window (a few blocks per executor thread) plus the
/// pass accumulators' run-length state — independent of the record count.
/// The report is bitwise identical to read_columnar + run_study, at every
/// thread width (see DESIGN.md §13 for the argument). A header without a
/// day count (study_days <= 0) is materialized first, since its geometry is
/// unknown until every record is seen. `open_report` is the ingest
/// report ColumnarFile::open/from_buffer filled (structural faults, bytes
/// consumed); record-level accounting is merged into it.
[[nodiscard]] StudyReport run_study_columnar(const cdr::ColumnarFile& file,
                                             const net::CellTable& cells,
                                             const CellLoad& load,
                                             const StudyOptions& options = {},
                                             cdr::IngestReport open_report = {});

/// Same, opening `path` first; structural open faults (bad header, damaged
/// index) land in the returned report's ingest accounting per
/// options.ingest.
[[nodiscard]] StudyReport run_study_columnar(const std::string& path,
                                             const net::CellTable& cells,
                                             const CellLoad& load,
                                             const StudyOptions& options = {});

/// Same, over an in-memory CCDR2 buffer (must stay alive for the call).
[[nodiscard]] StudyReport run_study_columnar_buffer(
    std::string_view bytes, const net::CellTable& cells, const CellLoad& load,
    const StudyOptions& options = {}, const std::string& label = "<memory>");

/// Bitwise equality of two study reports: every member compares through
/// its defaulted operator==, so every field counts, including each per-car
/// sample vector and the ingest/clean accounting. On mismatch, `why` (if
/// non-null) names the first differing member (e.g. "connected_time"), not
/// the field inside it. Shared by the harness's columnar-roundtrip
/// invariant, the benches and the equivalence tests.
[[nodiscard]] bool study_reports_identical(const StudyReport& a,
                                           const StudyReport& b,
                                           std::string* why = nullptr);

}  // namespace ccms::core
