#include "stream/operators.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cdr/clean.h"
#include "core/passes.h"
#include "util/time.h"

namespace ccms::stream {

namespace {

template <class T>
void sort_unique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

}  // namespace

void ShardState::ActiveBin::add(std::uint32_t car, std::uint32_t cell) {
  cars.push_back(car);
  keys.push_back(key(cell, car));
  // Bounds a bin's duplicates the way the batch accumulators bound their
  // pending buffers; counting from the last compaction keeps a bin with
  // many distinct keys from sorting on every observation.
  if (keys.size() - compacted >= core::kPassFlushRecords) compact();
}

void ShardState::ActiveBin::compact() {
  if (keys.size() == compacted) return;  // nothing added since the last one
  sort_unique(cars);
  sort_unique(keys);
  compacted = keys.size();
}

BinCounts ShardState::count_bin(std::int64_t bin, const ActiveBin& active) {
  BinCounts counts;
  counts.bin = bin;
  counts.cars = static_cast<std::uint32_t>(active.cars.size());
  // Keys sort by cell first, so each cell's distinct cars are one run.
  const auto& keys = active.keys;
  for (std::size_t i = 0; i < keys.size();) {
    const std::uint32_t cell = ActiveBin::cell_of(keys[i]);
    const std::size_t first = i;
    while (i < keys.size() && ActiveBin::cell_of(keys[i]) == cell) ++i;
    counts.cells.emplace_back(cell, static_cast<std::uint32_t>(i - first));
  }
  return counts;
}

ShardState::ShardState(const StreamConfig& config, int shard_index)
    : config_(config), shard_index_(shard_index) {
  if (config_.study_days > 0) {
    cars_per_day_.resize(static_cast<std::size_t>(config_.study_days), 0);
  }
  if (config_.fleet_size > 0 && config_.shards > 0) {
    // Cars are striped car % shards -> shard, car / shards -> local index.
    const std::uint32_t shards = static_cast<std::uint32_t>(config_.shards);
    cars_.reserve((config_.fleet_size + shards - 1) / shards);
  }
}

void ShardState::offer(const cdr::Connection& c) {
  reorder_.push(c);
  reorder_peak_ = std::max(reorder_peak_, reorder_.size());
}

void ShardState::advance(time::Seconds watermark) {
  // Strictly `start < watermark`: records sharing a start stay together, so
  // a watermark landing exactly on a tie never splits it across calls.
  while (!reorder_.empty() && reorder_.top().start < watermark) {
    integrate(reorder_.top());
    reorder_.pop();
  }
  fold_bins(watermark);
}

void ShardState::close() {
  if (closed_) return;
  advance(std::numeric_limits<time::Seconds>::max());
  for (CarState& state : cars_) {
    if (!state.seen) continue;
    if (auto session = state.session.finish()) {
      ++sessions_closed_;
      session_span_.add(static_cast<double>(session->span.duration()));
    }
    state.full.close();
    state.trunc.close();
  }
  closed_ = true;
}

ShardState::CarState& ShardState::car_state(std::uint32_t car) {
  const auto index =
      static_cast<std::size_t>(car / static_cast<std::uint32_t>(
                                         std::max(1, config_.shards)));
  if (index >= cars_.size()) cars_.resize(index + 1);
  CarState& state = cars_[index];
  if (!state.seen) {
    state.seen = true;
    state.session = cdr::SessionBuilder(config_.session_gap);
  }
  return state;
}

void ShardState::mark_days(CarState& state, std::uint32_t cell,
                           time::Seconds start, time::Seconds end) {
  // The batch presence convention, via the shared core helper: the last
  // instant of a half-open interval is end-1, days clamp into the horizon.
  const core::DayRange range =
      core::study_day_range(start, end, config_.study_days);
  DayBits& cell_bits = cell_days_[cell];
  for (std::int64_t d = range.first; d <= range.last; ++d) {
    max_day_seen_ = std::max(max_day_seen_, d);
    if (state.days.set(d)) {
      const auto di = static_cast<std::size_t>(d);
      if (di >= cars_per_day_.size()) cars_per_day_.resize(di + 1, 0);
      ++cars_per_day_[di];
    }
    cell_bits.set(d);
  }
}

void ShardState::mark_bins(std::uint32_t car, std::uint32_t cell,
                           time::Seconds start, time::Seconds end) {
  const core::BinRange bins = core::bin15_range(start, end);
  for (std::int64_t b = bins.first; b <= bins.last; ++b) {
    active_bins_[b].add(car, cell);
  }
}

void ShardState::fold_bins(time::Seconds watermark) {
  // A bin [b*900, (b+1)*900) is final once the watermark passes its end:
  // every record integrated later starts at or after the watermark, hence
  // past the bin. Folding compacts its observation lists once and keeps
  // only the counts.
  while (!active_bins_.empty()) {
    auto& [bin, active] = *active_bins_.begin();
    if (watermark < std::numeric_limits<time::Seconds>::max() &&
        (bin + 1) * time::kSecondsPerBin15 > watermark) {
      break;
    }
    active.compact();
    folded_bins_.push_back(count_bin(bin, active));
    active_bins_.erase(active_bins_.begin());
  }
  while (config_.recent_bins > 0 &&
         folded_bins_.size() > static_cast<std::size_t>(config_.recent_bins)) {
    folded_bins_.pop_front();
  }
}

void ShardState::integrate(const cdr::Connection& c) {
  // Supervision hook: a throw here (before any state mutation) degrades the
  // shard but leaves its operators consistent as of the previous record.
  if (config_.operator_hook) config_.operator_hook(shard_index_, c);
  ++records_;
  const std::uint32_t car = c.car.value;
  const std::uint32_t cell = c.cell.value;
  CarState& state = car_state(car);

  if (auto closed = state.session.push(c)) {
    ++sessions_closed_;
    session_span_.add(static_cast<double>(closed->span.duration()));
  }

  // Union-of-intervals via the same incremental core the batch
  // union_connected_time uses (cdr::IntervalUnionRun).
  state.full.add(c.start, c.end());
  const std::int32_t capped =
      cdr::truncated_duration(c.duration_s, config_.truncation_cap);
  state.trunc.add(c.start, c.start + capped);

  mark_days(state, cell, c.start, c.end());
  core::add_connection(usage_, c);

  CellDuration& durations = cell_durations_[cell];
  ++durations.connections;
  durations.median.add(static_cast<double>(c.duration_s));

  mark_bins(car, cell, c.start, c.end());
}

ShardSnapshot ShardState::snapshot() {
  ShardSnapshot snap;
  snap.records = records_;
  snap.reorder_peak = reorder_peak_;
  snap.reorder_pending = reorder_.size();
  snap.usage = usage_;
  snap.sessions_closed = sessions_closed_;
  snap.session_span = session_span_;
  snap.cars_per_day.assign(cars_per_day_.begin(), cars_per_day_.end());

  const auto shards = static_cast<std::uint32_t>(std::max(1, config_.shards));
  snap.cars.reserve(cars_.size());
  for (std::size_t i = 0; i < cars_.size(); ++i) {
    const CarState& state = cars_[i];
    if (!state.seen) continue;
    ShardSnapshot::CarTotals totals;
    totals.car = static_cast<std::uint32_t>(i) * shards +
                 static_cast<std::uint32_t>(shard_index_);
    // IntervalUnionRun::total() counts an open run provisionally at its
    // current extent; after close() it is banked, so this stays exact.
    totals.full_s = state.full.total();
    totals.trunc_s = state.trunc.total();
    totals.days = state.days.count();
    snap.cars.push_back(totals);
    if (state.session.open()) {
      ++snap.sessions_open;
      snap.session_span.add(
          static_cast<double>(state.session.current().span.duration()));
    }
  }

  snap.cell_days.reserve(cell_days_.size());
  for (const auto& [cell, bits] : cell_days_) {
    snap.cell_days.emplace_back(cell, bits);
  }
  std::sort(snap.cell_days.begin(), snap.cell_days.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  snap.cell_stats.reserve(cell_durations_.size());
  for (const auto& [cell, entry] : cell_durations_) {
    snap.cell_stats.push_back({cell, entry.connections, entry.median.value()});
  }
  std::sort(snap.cell_stats.begin(), snap.cell_stats.end(),
            [](const auto& a, const auto& b) { return a.cell < b.cell; });

  snap.bins.reserve(folded_bins_.size() + active_bins_.size());
  snap.bins.assign(folded_bins_.begin(), folded_bins_.end());
  for (auto& [bin, active] : active_bins_) {
    active.compact();
    BinCounts counts = count_bin(bin, active);
    counts.provisional = true;
    snap.bins.push_back(std::move(counts));
  }
  return snap;
}

}  // namespace ccms::stream
