#include "stream/report.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/time.h"

namespace ccms::stream {

DurationTally::DurationTally(std::int32_t cap) : cap_(cap) {}

void DurationTally::add(std::int32_t duration_s) {
  if (duration_s < 0) return;
  const auto d = static_cast<std::size_t>(duration_s);
  if (d >= hist_.size()) hist_.resize(d + 1, 0);
  ++hist_[d];
  ++count_;
  sum_full_ += duration_s;
  sum_trunc_ += cdr::truncated_duration(duration_s, cap_);
  p2_.add(static_cast<double>(duration_s));
}

double DurationTally::quantile(double q) const {
  if (count_ == 0) return 0;
  // Reconstruct the two order statistics type-7 interpolates between from
  // cumulative multiplicities — exactly what EmpiricalDistribution computes
  // over the sorted sample, without materialising it.
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(h);
  const double frac = h - static_cast<double>(lo);
  const std::uint64_t hi = std::min<std::uint64_t>(count_ - 1, lo + 1);

  double v_lo = 0;
  double v_hi = 0;
  std::uint64_t cum = 0;
  bool have_lo = false;
  for (std::size_t d = 0; d < hist_.size(); ++d) {
    cum += hist_[d];
    if (!have_lo && cum > lo) {
      v_lo = static_cast<double>(d);
      have_lo = true;
    }
    if (cum > hi) {
      v_hi = static_cast<double>(d);
      break;
    }
  }
  return v_lo + frac * (v_hi - v_lo);
}

double DurationTally::cdf(std::int32_t x) const {
  if (count_ == 0) return 0;
  if (x < 0) return 0;
  std::uint64_t cum = 0;
  const std::size_t last =
      std::min(hist_.size(), static_cast<std::size_t>(x) + 1);
  for (std::size_t d = 0; d < last; ++d) cum += hist_[d];
  return static_cast<double>(cum) / static_cast<double>(count_);
}

core::CellSessionStats DurationTally::to_cell_stats() const {
  core::CellSessionStats stats;
  stats.cap = cap_;
  if (count_ == 0) return stats;
  stats.median = quantile(0.5);
  stats.mean_full =
      static_cast<double>(sum_full_) / static_cast<double>(count_);
  stats.mean_truncated =
      static_cast<double>(sum_trunc_) / static_cast<double>(count_);
  stats.cdf_at_cap = cdf(cap_);
  return stats;
}

StreamReport merge_snapshots(const StreamConfig& config,
                             const std::vector<ShardSnapshot>& shards,
                             const cdr::IngestReport& ingest,
                             const cdr::CleanReport& clean,
                             const DurationTally& durations,
                             const EngineStats& engine,
                             std::vector<DegradedShard> degraded) {
  StreamReport report;
  report.ingest = ingest;
  report.clean = clean;
  report.engine = engine;
  report.degraded_shards = std::move(degraded);
  std::uint64_t lost = 0;
  for (const DegradedShard& d : report.degraded_shards) {
    lost += d.records_lost;
  }
  report.coverage_fraction =
      engine.records_routed > 0
          ? 1.0 - static_cast<double>(lost) /
                      static_cast<double>(engine.records_routed)
          : 1.0;
  report.cell_sessions = durations.to_cell_stats();
  report.duration_p2_median = durations.p2_median();

  // Study horizon: configured, or grown to the latest day any shard saw.
  std::size_t observed_days = 0;
  for (const ShardSnapshot& shard : shards) {
    observed_days = std::max(observed_days, shard.cars_per_day.size());
  }
  const int study_days =
      config.study_days > 0 ? config.study_days
                            : static_cast<int>(observed_days);
  const auto n_days = static_cast<std::size_t>(std::max(1, study_days));

  // --- Presence (cars are partitioned: per-day counts add; cells span
  // shards: per-cell day sets OR together).
  std::vector<std::uint64_t> cars_per_day(n_days, 0);
  std::unordered_map<std::uint32_t, DayBits> cell_days;
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t d = 0; d < shard.cars_per_day.size() && d < n_days; ++d) {
      cars_per_day[d] += shard.cars_per_day[d];
    }
    for (const auto& [cell, bits] : shard.cell_days) {
      cell_days[cell].merge(bits);
    }
  }
  std::vector<std::uint64_t> cells_per_day(n_days, 0);
  for (const auto& [cell, bits] : cell_days) {
    for (std::size_t d = 0; d < n_days; ++d) {
      if (bits.test(static_cast<std::int64_t>(d))) ++cells_per_day[d];
    }
  }
  report.presence.fleet_size = config.fleet_size;
  report.presence.ever_touched_cells = cell_days.size();
  report.presence.cars_fraction.resize(n_days, 0.0);
  report.presence.cells_fraction.resize(n_days, 0.0);
  for (std::size_t d = 0; d < n_days; ++d) {
    report.presence.cars_fraction[d] =
        report.presence.fleet_size > 0
            ? static_cast<double>(cars_per_day[d]) / report.presence.fleet_size
            : 0.0;
    report.presence.cells_fraction[d] =
        report.presence.ever_touched_cells > 0
            ? static_cast<double>(cells_per_day[d]) /
                  static_cast<double>(report.presence.ever_touched_cells)
            : 0.0;
  }
  core::summarize_presence(report.presence);

  // --- Per-car totals, merged in ascending car order so the derived
  // vectors line up with the batch for_each_car traversal.
  std::vector<ShardSnapshot::CarTotals> all_cars;
  for (const ShardSnapshot& shard : shards) {
    all_cars.insert(all_cars.end(), shard.cars.begin(), shard.cars.end());
  }
  std::sort(all_cars.begin(), all_cars.end(),
            [](const auto& a, const auto& b) { return a.car < b.car; });

  const double study_seconds =
      static_cast<double>(study_days) * time::kSecondsPerDay;
  if (study_seconds > 0) {
    std::vector<double> full;
    std::vector<double> truncated;
    full.reserve(all_cars.size());
    truncated.reserve(all_cars.size());
    for (const auto& car : all_cars) {
      full.push_back(static_cast<double>(car.full_s) / study_seconds);
      truncated.push_back(static_cast<double>(car.trunc_s) / study_seconds);
    }
    report.connected_time = core::connected_time_from_fractions(
        std::move(full), std::move(truncated), study_days);
  } else {
    report.connected_time.study_days = study_days;
  }

  std::vector<CarId> day_cars;
  std::vector<int> days_per_car;
  day_cars.reserve(all_cars.size());
  days_per_car.reserve(all_cars.size());
  for (const auto& car : all_cars) {
    day_cars.push_back(CarId{car.car});
    days_per_car.push_back(car.days);
  }
  report.days = core::days_on_network_from_counts(
      std::move(day_cars), std::move(days_per_car), study_days);

  // --- Usage matrix and sessions.
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t i = 0; i < report.usage.values.size(); ++i) {
      report.usage.values[i] += shard.usage.values[i];
    }
    report.sessions_closed += shard.sessions_closed;
    report.sessions_open += shard.sessions_open;
    report.session_span.merge(shard.session_span);
    report.engine.records_integrated += shard.records;
    report.engine.reorder_peak =
        std::max(report.engine.reorder_peak, shard.reorder_peak);
    report.engine.reorder_pending += shard.reorder_pending;
  }

  // --- Busiest cells: connection counts add; the P2 medians of one cell's
  // shard-local substreams combine as a count-weighted average.
  struct CellAgg {
    std::uint64_t connections = 0;
    double weighted_median = 0;
  };
  std::unordered_map<std::uint32_t, CellAgg> cells;
  for (const ShardSnapshot& shard : shards) {
    for (const auto& stat : shard.cell_stats) {
      CellAgg& agg = cells[stat.cell];
      agg.connections += stat.connections;
      agg.weighted_median +=
          static_cast<double>(stat.connections) * stat.median_s;
    }
  }
  report.top_cells.reserve(cells.size());
  for (const auto& [cell, agg] : cells) {
    CellActivity activity;
    activity.cell = cell;
    activity.connections = agg.connections;
    activity.median_s = agg.connections > 0
                            ? agg.weighted_median /
                                  static_cast<double>(agg.connections)
                            : 0.0;
    const auto it = cell_days.find(cell);
    activity.days_active = it != cell_days.end() ? it->second.count() : 0;
    report.top_cells.push_back(activity);
  }
  std::sort(report.top_cells.begin(), report.top_cells.end(),
            [](const CellActivity& a, const CellActivity& b) {
              if (a.connections != b.connections) {
                return a.connections > b.connections;
              }
              return a.cell < b.cell;
            });
  if (report.top_cells.size() > config.top_cells) {
    report.top_cells.resize(config.top_cells);
  }

  // --- Recent concurrency bins: same bin across shards merges additively
  // (disjoint car sets), provisional if any shard still holds it open.
  std::map<std::int64_t, BinCounts> bins;
  for (const ShardSnapshot& shard : shards) {
    for (const BinCounts& b : shard.bins) {
      BinCounts& merged = bins[b.bin];
      merged.bin = b.bin;
      merged.cars += b.cars;
      merged.provisional = merged.provisional || b.provisional;
      for (const auto& [cell, count] : b.cells) {
        auto it = std::lower_bound(
            merged.cells.begin(), merged.cells.end(), cell,
            [](const auto& entry, std::uint32_t c) { return entry.first < c; });
        if (it != merged.cells.end() && it->first == cell) {
          it->second += count;
        } else {
          merged.cells.insert(it, {cell, count});
        }
      }
    }
  }
  report.recent_bins.reserve(bins.size());
  for (auto& [bin, counts] : bins) report.recent_bins.push_back(std::move(counts));
  if (config.recent_bins > 0 &&
      report.recent_bins.size() > static_cast<std::size_t>(config.recent_bins)) {
    report.recent_bins.erase(
        report.recent_bins.begin(),
        report.recent_bins.end() - config.recent_bins);
  }
  return report;
}

namespace {

double max_abs_delta(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

ParityReport parity_against(const StreamReport& stream,
                            const core::StudyReport& batch,
                            const core::Matrix24x7* fleet_usage) {
  ParityReport parity;

  parity.presence_cars_max_delta = max_abs_delta(
      stream.presence.cars_fraction, batch.presence.cars_fraction);
  parity.presence_cells_max_delta = max_abs_delta(
      stream.presence.cells_fraction, batch.presence.cells_fraction);
  parity.presence_denominators_equal =
      stream.presence.fleet_size == batch.presence.fleet_size &&
      stream.presence.ever_touched_cells == batch.presence.ever_touched_cells;

  parity.connected_mean_full_delta = std::abs(
      stream.connected_time.mean_full - batch.connected_time.mean_full);
  parity.connected_mean_truncated_delta =
      std::abs(stream.connected_time.mean_truncated -
               batch.connected_time.mean_truncated);
  parity.connected_p995_full_delta = std::abs(
      stream.connected_time.p995_full - batch.connected_time.p995_full);
  parity.connected_p995_truncated_delta =
      std::abs(stream.connected_time.p995_truncated -
               batch.connected_time.p995_truncated);
  parity.connected_cars_delta =
      static_cast<std::int64_t>(stream.connected_time.full.size()) -
      static_cast<std::int64_t>(batch.connected_time.full.size());

  parity.days_per_car_equal =
      stream.days.cars == batch.days.cars &&
      stream.days.days_per_car == batch.days.days_per_car;

  parity.duration_median_delta =
      std::abs(stream.cell_sessions.median - batch.cell_sessions.median);
  parity.duration_mean_full_delta =
      std::abs(stream.cell_sessions.mean_full - batch.cell_sessions.mean_full);
  parity.duration_mean_truncated_delta =
      std::abs(stream.cell_sessions.mean_truncated -
               batch.cell_sessions.mean_truncated);
  parity.duration_cdf_at_cap_delta = std::abs(
      stream.cell_sessions.cdf_at_cap - batch.cell_sessions.cdf_at_cap);

  if (fleet_usage != nullptr) {
    for (std::size_t i = 0; i < stream.usage.values.size(); ++i) {
      parity.usage_max_delta =
          std::max(parity.usage_max_delta,
                   std::abs(stream.usage.values[i] - fleet_usage->values[i]));
    }
  }

  const double exact_median = batch.cell_sessions.median;
  if (exact_median != 0) {
    parity.p2_median_rel_error =
        std::abs(stream.duration_p2_median - exact_median) /
        std::abs(exact_median);
  } else {
    parity.p2_median_rel_error = std::abs(stream.duration_p2_median);
  }
  return parity;
}

bool reports_identical(const StreamReport& a, const StreamReport& b,
                       std::string* why) {
  // Delivery telemetry is left out; everything the engine accounted
  // compares through the members' defaulted operator==. An at-least-once
  // feed legitimately re-delivers and replays (ingest rows, records_offered,
  // records_replayed), and a replayed run drains its reorder heaps at other
  // instants (reorder_peak), with identical analytic state. A degraded
  // shard's reason is the text of whatever exception killed it.
  const auto ingest_ties = [](const cdr::IngestReport& r) {
    return std::tie(r.records_accepted, r.records_dropped, r.records_repaired,
                    r.counters, r.quarantine, r.quarantine_overflow);
  };
  const auto engine_ties = [](const EngineStats& e) {
    return std::tie(e.shards, e.watermark, e.records_routed,
                    e.records_integrated, e.reorder_pending);
  };
  const auto same_loss = [](const DegradedShard& x, const DegradedShard& y) {
    return x.shard == y.shard && x.records_lost == y.records_lost;
  };
  const char* differing =
        ingest_ties(a.ingest) != ingest_ties(b.ingest) ? "ingest"
      : a.clean != b.clean                             ? "clean"
      : a.presence != b.presence                       ? "presence"
      : a.connected_time != b.connected_time           ? "connected_time"
      : a.days != b.days                               ? "days"
      : a.cell_sessions != b.cell_sessions             ? "cell_sessions"
      : a.duration_p2_median != b.duration_p2_median   ? "duration_p2_median"
      : a.usage != b.usage                             ? "usage"
      : a.sessions_closed != b.sessions_closed         ? "sessions_closed"
      : a.sessions_open != b.sessions_open             ? "sessions_open"
      : a.session_span != b.session_span               ? "session_span"
      : a.top_cells != b.top_cells                     ? "top_cells"
      : a.recent_bins != b.recent_bins                 ? "recent_bins"
      : !std::ranges::equal(a.degraded_shards, b.degraded_shards, same_loss)
          ? "degraded_shards"
      : a.coverage_fraction != b.coverage_fraction     ? "coverage_fraction"
      : engine_ties(a.engine) != engine_ties(b.engine) ? "engine"
      : nullptr;
  if (differing != nullptr && why != nullptr) *why = differing;
  return differing == nullptr;
}

bool ParityReport::pass(double p2_rel_tolerance) const {
  return presence_cars_max_delta == 0 && presence_cells_max_delta == 0 &&
         presence_denominators_equal && connected_mean_full_delta == 0 &&
         connected_mean_truncated_delta == 0 &&
         connected_p995_full_delta == 0 &&
         connected_p995_truncated_delta == 0 && connected_cars_delta == 0 &&
         days_per_car_equal && duration_median_delta == 0 &&
         duration_mean_full_delta == 0 && duration_mean_truncated_delta == 0 &&
         duration_cdf_at_cap_delta == 0 && usage_max_delta == 0 &&
         p2_median_rel_error <= p2_rel_tolerance;
}

}  // namespace ccms::stream
