#include "stream/report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "stream/frontend.h"
#include "util/time.h"

namespace ccms::stream {

DurationTally::DurationTally(std::int32_t cap) : cap_(cap) {}

void DurationTally::add(std::int32_t duration_s) {
  if (duration_s < 0) return;
  hist_.add(static_cast<std::size_t>(duration_s));
  p2_.add(static_cast<double>(duration_s));
}

core::CellSessionStats DurationTally::to_cell_stats() const {
  return core::summarize_cell_sessions(hist_.distribution(), cap_);
}

namespace {

/// K-way merge of per-shard lists that each ascend by `key`: calls
/// `group(k, entries)` once per distinct key k, in ascending key order,
/// with the entries holding k shard by shard (each shard's own in list
/// order). That is the order a walk of the shards one after another meets
/// them in, so sums over a group come out bit for bit as that walk's. A
/// `group(k, entries, lists_of)` is also handed the list each entry is in.
template <class Entry, class KeyFn, class GroupFn>
void merge_ascending(const std::vector<std::span<const Entry>>& lists,
                     const KeyFn& key, const GroupFn& group) {
  using Key = std::invoke_result_t<KeyFn, const Entry&>;
  // Min-heap of (head key, shard): equal keys pop in shard order.
  std::vector<std::pair<Key, std::size_t>> heads;
  std::vector<std::size_t> next(lists.size(), 0);
  const auto after = [](const auto& a, const auto& b) { return a > b; };
  for (std::size_t s = 0; s < lists.size(); ++s) {
    if (!lists[s].empty()) heads.emplace_back(key(lists[s].front()), s);
  }
  std::make_heap(heads.begin(), heads.end(), after);

  std::vector<const Entry*> entries;
  std::vector<std::size_t> lists_of;
  while (!heads.empty()) {
    const Key k = heads.front().first;
    entries.clear();
    lists_of.clear();
    while (!heads.empty() && heads.front().first == k) {
      std::pop_heap(heads.begin(), heads.end(), after);
      const std::size_t s = heads.back().second;
      entries.push_back(&lists[s][next[s]]);
      lists_of.push_back(s);
      if (++next[s] < lists[s].size()) {
        heads.back().first = key(lists[s][next[s]]);
        std::push_heap(heads.begin(), heads.end(), after);
      } else {
        heads.pop_back();
      }
    }
    const std::span<const Entry* const> group_entries(entries);
    if constexpr (std::is_invocable_v<const GroupFn&, Key,
                                      std::span<const Entry* const>,
                                      std::span<const std::size_t>>) {
      group(k, group_entries, std::span<const std::size_t>(lists_of));
    } else {
      group(k, group_entries);
    }
  }
}

/// One list per shard, picked out of its snapshot by `member`.
template <class Member>
auto shard_lists(const std::vector<ShardSnapshot>& shards, Member member) {
  using Entry =
      typename std::remove_cvref_t<decltype(shards[0].*member)>::value_type;
  std::vector<std::span<const Entry>> lists;
  lists.reserve(shards.size());
  for (const ShardSnapshot& shard : shards) lists.emplace_back(shard.*member);
  return lists;
}

}  // namespace

StreamReport merge_snapshots(const Frontend& frontend,
                             std::vector<ShardSnapshot> shards,
                             std::vector<DegradedShard> degraded) {
  const StreamConfig& config = frontend.config();
  StreamReport report;
  report.ingest = frontend.ingest();
  report.clean = frontend.clean();
  report.engine.shards = config.shards;
  report.engine.watermark = frontend.watermark();
  report.engine.records_offered = frontend.offered();
  report.engine.records_replayed = frontend.replayed();
  report.engine.records_routed = frontend.routed();

  // A degraded shard lost every routed record it never integrated; those
  // parked in its reorder heap are part of that loss, so reporting them as
  // pending too would double-count them and break
  // routed == integrated + pending + lost.
  std::uint64_t lost = 0;
  for (DegradedShard& d : degraded) {
    ShardSnapshot& shard = shards[static_cast<std::size_t>(d.shard)];
    d.records_lost =
        frontend.routed_per_shard()[static_cast<std::size_t>(d.shard)] -
        shard.records;
    shard.reorder_pending = 0;
    lost += d.records_lost;
  }
  report.degraded_shards = std::move(degraded);
  report.coverage_fraction =
      report.engine.records_routed > 0
          ? 1.0 - static_cast<double>(lost) /
                      static_cast<double>(report.engine.records_routed)
          : 1.0;
  report.cell_sessions = frontend.durations().to_cell_stats();
  report.duration_p2_median = frontend.durations().p2_median();

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
  // shards: a cell's day words OR together, and it counts on every day of
  // the union). Every shard lists its cells ascending with their words in
  // one contiguous array, so the merge is one pass over flat memory;
  // days_active keeps each cell's day count for the busiest cells.
  std::vector<std::uint64_t> cars_per_day(n_days, 0);
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t d = 0; d < shard.cars_per_day.size() && d < n_days; ++d) {
      cars_per_day[d] += shard.cars_per_day[d];
    }
  }
  std::vector<std::uint64_t> cells_per_day(n_days, 0);
  std::vector<std::pair<std::uint32_t, int>> days_active;
  std::vector<std::uint64_t> cell_words;
  merge_ascending(
      shard_lists(shards, &ShardSnapshot::day_cells),
      [](std::uint32_t cell) { return cell; },
      [&](std::uint32_t cell, auto entries, auto lists_of) {
        cell_words.clear();
        for (std::size_t k = 0; k < entries.size(); ++k) {
          const ShardSnapshot& shard = shards[lists_of[k]];
          const auto row =
              static_cast<std::size_t>(entries[k] - shard.day_cells.data());
          const std::size_t first = shard.day_rows[row];
          const std::size_t words = shard.day_rows[row + 1] - first;
          if (words > cell_words.size()) cell_words.resize(words, 0);
          for (std::size_t w = 0; w < words; ++w) {
            cell_words[w] |= shard.day_words[first + w];
          }
        }
        int days = 0;
        for (std::size_t w = 0; w < cell_words.size(); ++w) {
          days += std::popcount(cell_words[w]);
          for (std::uint64_t bits = cell_words[w]; bits != 0;
               bits &= bits - 1) {
            const std::size_t d =
                64 * w + static_cast<std::size_t>(std::countr_zero(bits));
            if (d < n_days) ++cells_per_day[d];
          }
        }
        days_active.emplace_back(cell, days);
      });
  report.presence = core::presence_from_counts(
      config.fleet_size, cars_per_day, cells_per_day, days_active.size());

  // --- Per-car totals, merged in ascending car order so the derived
  // vectors line up with the batch for_each_car traversal.
  std::vector<ShardSnapshot::CarTotals> all_cars;
  merge_ascending(
      shard_lists(shards, &ShardSnapshot::cars),
      [](const auto& car) { return car.car; },
      [&](std::uint32_t, auto entries) {
        for (const auto* car : entries) all_cars.push_back(*car);
      });

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
  // shard-local substreams combine as a count-weighted average. Cells come
  // out ascending, as days_active holds them.
  std::vector<CellActivity> cells;
  auto days = days_active.cbegin();
  merge_ascending(
      shard_lists(shards, &ShardSnapshot::cell_stats),
      [](const auto& stat) { return stat.cell; },
      [&](std::uint32_t cell, auto entries) {
        CellActivity activity;
        activity.cell = cell;
        double weighted_median = 0;
        for (const auto* stat : entries) {
          activity.connections += stat->connections;
          weighted_median +=
              static_cast<double>(stat->connections) * stat->median_s;
        }
        activity.median_s =
            activity.connections > 0
                ? weighted_median / static_cast<double>(activity.connections)
                : 0.0;
        while (days != days_active.cend() && days->first < cell) ++days;
        activity.days_active =
            days != days_active.cend() && days->first == cell ? days->second
                                                              : 0;
        cells.push_back(activity);
      });
  const auto busier = [](const CellActivity& a, const CellActivity& b) {
    if (a.connections != b.connections) return a.connections > b.connections;
    return a.cell < b.cell;
  };
  const auto top =
      static_cast<std::ptrdiff_t>(std::min(cells.size(), config.top_cells));
  std::partial_sort(cells.begin(), cells.begin() + top, cells.end(), busier);
  cells.resize(static_cast<std::size_t>(top));
  report.top_cells = std::move(cells);

  // --- Recent concurrency bins: same bin across shards merges additively
  // (disjoint car sets), provisional if any shard still holds it open. Each
  // bin's cell lists ascend by cell, so they merge like the lists above.
  std::vector<std::span<const std::pair<std::uint32_t, std::uint32_t>>>
      bin_cells;
  merge_ascending(
      shard_lists(shards, &ShardSnapshot::bins),
      [](const BinCounts& b) { return b.bin; },
      [&](std::int64_t bin, auto entries) {
        BinCounts merged;
        merged.bin = bin;
        bin_cells.clear();
        for (const BinCounts* b : entries) {
          merged.cars += b->cars;
          merged.provisional = merged.provisional || b->provisional;
          bin_cells.emplace_back(b->cells);
        }
        merge_ascending(
            bin_cells, [](const auto& entry) { return entry.first; },
            [&](std::uint32_t cell, auto counts) {
              std::uint32_t cars = 0;
              for (const auto* count : counts) cars += count->second;
              merged.cells.emplace_back(cell, cars);
            });
        report.recent_bins.push_back(std::move(merged));
      });
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
