// Snapshot assembly and batch parity for the streaming engine.
//
// A StreamReport is a merge of all shard snapshots plus the producer-side
// accounting, shaped field-for-field like the corresponding pieces of
// core::StudyReport so the two can be diffed directly. parity_against()
// computes that diff; the replay tests assert it is exact for every counter
// and within 1% for the P2-estimated quantiles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdr/clean.h"
#include "cdr/integrity.h"
#include "core/cell_sessions.h"
#include "core/connected_time.h"
#include "core/days_histogram.h"
#include "core/presence.h"
#include "core/study.h"
#include "core/usage_matrix.h"
#include "stats/descriptive.h"
#include "stats/p2_quantile.h"
#include "stream/config.h"
#include "stream/operators.h"

namespace ccms::stream {

/// Exact global duration statistics, maintained in the single-threaded
/// producer so they are bit-identical for every shard count. Durations are
/// small integers (post-clean <= 48 h), so an exact count histogram is tiny
/// and quantiles can be interpolated from it without keeping the sample —
/// the streaming replacement for CellSessionStats' sorted vector. A P2
/// estimator runs alongside as the constant-memory cross-check the paper's
/// full-scale (1.1 G record) input would require.
class DurationTally {
 public:
  explicit DurationTally(std::int32_t cap = 600);

  /// Adds one post-clean duration (> 0).
  void add(std::int32_t duration_s);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum_full() const { return sum_full_; }
  [[nodiscard]] std::int64_t sum_truncated() const { return sum_trunc_; }
  [[nodiscard]] std::int32_t cap() const { return cap_; }

  /// Exact type-7 quantile over the recorded multiset — the same
  /// interpolation stats::EmpiricalDistribution::quantile computes over the
  /// sorted sample, reconstructed from cumulative counts.
  [[nodiscard]] double quantile(double q) const;

  /// Exact empirical CDF: fraction of durations <= x.
  [[nodiscard]] double cdf(std::int32_t x) const;

  /// The P2 running estimate of the median (for error tracking).
  [[nodiscard]] double p2_median() const { return p2_.value(); }

  /// Packages the tally as the Fig 9 stats block. `durations` stays empty
  /// (no per-record sample is kept); every scalar is exact.
  [[nodiscard]] core::CellSessionStats to_cell_stats() const;

  /// Full durable state for checkpoint/restore. The exact histogram and the
  /// P2 markers both round-trip, so a restored tally continues bit-exactly.
  struct State {
    std::int32_t cap = 600;
    std::vector<std::uint64_t> hist;
    std::uint64_t count = 0;
    std::int64_t sum_full = 0;
    std::int64_t sum_trunc = 0;
    stats::P2Quantile::State p2;
  };
  [[nodiscard]] State state() const {
    return {cap_, hist_, count_, sum_full_, sum_trunc_, p2_.state()};
  }
  void restore(const State& s) {
    cap_ = s.cap;
    hist_ = s.hist;
    count_ = s.count;
    sum_full_ = s.sum_full;
    sum_trunc_ = s.sum_trunc;
    p2_.restore(s.p2);
  }

 private:
  std::int32_t cap_ = 600;
  std::vector<std::uint64_t> hist_;  ///< hist_[d] = multiplicity of d
  std::uint64_t count_ = 0;
  std::int64_t sum_full_ = 0;
  std::int64_t sum_trunc_ = 0;
  stats::P2Quantile p2_{0.5};
};

/// Engine-level counters of one snapshot.
struct EngineStats {
  int shards = 1;
  time::Seconds watermark = 0;
  std::uint64_t records_offered = 0;     ///< records pushed into the engine
  std::uint64_t records_replayed = 0;    ///< re-delivered dups dropped by the
                                         ///< exactly-once ack cursors
  std::uint64_t records_routed = 0;      ///< survived clean + watermark
  std::uint64_t records_integrated = 0;  ///< merged into shard state so far
  std::size_t reorder_peak = 0;          ///< max reorder-heap depth, any shard
  std::size_t reorder_pending = 0;       ///< records still inside the window
};

/// A busy cell in the live view: connection count, P2 median duration and
/// the number of study days it was touched.
struct CellActivity {
  std::uint32_t cell = 0;
  std::uint64_t connections = 0;
  double median_s = 0;
  int days_active = 0;

  friend bool operator==(const CellActivity&, const CellActivity&) = default;
};

/// One quarantined (degraded) shard in a snapshot: the worker hit an
/// operator failure, kept draining its queue without applying it, and the
/// engine counted what was lost instead of crashing or under-reporting
/// silently.
struct DegradedShard {
  int shard = 0;
  std::uint64_t records_lost = 0;  ///< routed but never integrated
  std::string reason;              ///< what() of the first failure
};

/// One engine snapshot, comparable to core::StudyReport piece by piece.
struct StreamReport {
  cdr::IngestReport ingest;  ///< late/dirty record accounting (quarantine)
  cdr::CleanReport clean;    ///< inline §3 screen accounting

  core::DailyPresence presence;        // = StudyReport::presence
  core::ConnectedTime connected_time;  // = StudyReport::connected_time
  core::DaysOnNetwork days;            // = StudyReport::days
  core::CellSessionStats cell_sessions;  // = StudyReport::cell_sessions
                                         //   (scalars only, sample not kept)
  /// Constant-memory P2 estimate of the Fig 9 median, tracked alongside the
  /// exact cell_sessions.median to expose the estimator's error.
  double duration_p2_median = 0;
  core::Matrix24x7 usage;  ///< whole-fleet 24x7 connection counts

  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_open = 0;
  stats::Accumulator session_span;  ///< seconds, closed + open sessions

  /// The busiest cells by connection count, descending, capped at
  /// StreamConfig::top_cells.
  std::vector<CellActivity> top_cells;

  /// Merged recent 15-minute concurrency bins, ascending by bin index.
  std::vector<BinCounts> recent_bins;

  /// Shards quarantined after an operator failure, ascending by shard
  /// index. Empty on a healthy run.
  std::vector<DegradedShard> degraded_shards;
  /// Fraction of routed records that reached an operator: 1.0 when healthy,
  /// 1 - sum(records_lost) / records_routed when shards degraded.
  double coverage_fraction = 1.0;

  EngineStats engine;
};

/// Merges shard snapshots and producer accounting into one report.
/// Distinct-car counts add across shards because cars are partitioned;
/// per-cell day sets are OR-ed because cells span shards. `degraded` lists
/// quarantined shards (ascending by index, empty when healthy).
[[nodiscard]] StreamReport merge_snapshots(
    const StreamConfig& config, const std::vector<ShardSnapshot>& shards,
    const cdr::IngestReport& ingest, const cdr::CleanReport& clean,
    const DurationTally& durations, const EngineStats& engine,
    std::vector<DegradedShard> degraded = {});

/// True iff two stream reports describe bit-identical analytic state: every
/// counter, distribution, quantile estimate and quarantine entry equal —
/// the contract a kill-and-restore run must meet against an uninterrupted
/// one. Members compare through their defaulted operator==, except the
/// delivery telemetry that legitimately differs across equivalent runs:
/// ingest mode, bytes_consumed, rows_read and bom_stripped; engine
/// records_offered, records_replayed and reorder_peak; a degraded shard's
/// reason. When `why` is non-null and the reports differ, it receives the
/// first differing member's name (e.g. "engine"), not the field inside it.
[[nodiscard]] bool reports_identical(const StreamReport& a,
                                     const StreamReport& b,
                                     std::string* why = nullptr);

/// Field-by-field diff of a stream snapshot against a batch study over the
/// same records. All `*_delta` fields are absolute differences; exact
/// operators must come out 0.0 (not just small), the P2-estimated median is
/// held to `p2_rel_tolerance` relative error.
struct ParityReport {
  double presence_cars_max_delta = 0;
  double presence_cells_max_delta = 0;
  bool presence_denominators_equal = false;

  double connected_mean_full_delta = 0;
  double connected_mean_truncated_delta = 0;
  double connected_p995_full_delta = 0;
  double connected_p995_truncated_delta = 0;
  std::int64_t connected_cars_delta = 0;

  bool days_per_car_equal = false;

  double duration_median_delta = 0;
  double duration_mean_full_delta = 0;
  double duration_mean_truncated_delta = 0;
  double duration_cdf_at_cap_delta = 0;

  double usage_max_delta = 0;

  /// |P2 median - exact batch median| / exact median (0 if median is 0).
  double p2_median_rel_error = 0;

  /// True iff every exact field agrees to the bit and the P2 estimate is
  /// within `p2_rel_tolerance`.
  [[nodiscard]] bool pass(double p2_rel_tolerance = 0.01) const;
};

/// Diffs `stream` against `batch`. The two must describe the same records
/// (same cleaning, same study geometry) for the exact fields to be 0.
/// `fleet_usage` is the batch-side whole-fleet 24x7 matrix (run_study does
/// not carry one); pass nullptr to skip the usage comparison.
[[nodiscard]] ParityReport parity_against(
    const StreamReport& stream, const core::StudyReport& batch,
    const core::Matrix24x7* fleet_usage = nullptr);

}  // namespace ccms::stream
