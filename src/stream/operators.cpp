#include "stream/operators.h"

#include <algorithm>
#include <limits>
#include <tuple>
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

/// A bin key, (cell << 32) | car: sorted keys group by cell.
std::uint64_t bin_key(std::uint32_t cell, std::uint32_t car) {
  return (std::uint64_t{cell} << 32) | car;
}

std::uint32_t key_cell(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

}  // namespace

void ShardState::ActiveBin::add(std::uint32_t car, std::uint32_t cell) {
  cars.push_back(car);
  keys.push_back(bin_key(cell, car));
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
    const std::uint32_t cell = key_cell(keys[i]);
    const std::size_t first = i;
    while (i < keys.size() && key_cell(keys[i]) == cell) ++i;
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

  auto [it, inserted] = cell_durations_.try_emplace(
      cell, std::piecewise_construct, std::forward_as_tuple(0),
      std::forward_as_tuple(0.5));
  ++it->second.first;
  it->second.second.add(static_cast<double>(c.duration_s));

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
    snap.cell_stats.push_back(
        {cell, entry.first, entry.second.value()});
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

void ShardState::save(ShardCheckpoint& out) {
  out = ShardCheckpoint{};
  out.records = records_;
  out.max_day_seen = max_day_seen_;
  out.closed = closed_;
  out.reorder_peak = reorder_peak_;
  out.sessions_closed = sessions_closed_;
  out.session_span = session_span_.state();
  out.usage = usage_;
  out.cars_per_day.assign(cars_per_day_.begin(), cars_per_day_.end());

  out.cars.reserve(cars_.size());
  for (std::size_t i = 0; i < cars_.size(); ++i) {
    const CarState& state = cars_[i];
    if (!state.seen) continue;
    ShardCheckpoint::Car car;
    car.local_index = static_cast<std::uint32_t>(i);
    car.session_open = state.session.open();
    if (car.session_open) car.open_session = state.session.current();
    car.full = state.full.state();
    car.trunc = state.trunc.state();
    car.day_words = state.days.words();
    out.cars.push_back(std::move(car));
  }

  out.cell_days.reserve(cell_days_.size());
  for (const auto& [cell, bits] : cell_days_) {
    out.cell_days.emplace_back(cell, bits.words());
  }
  std::sort(out.cell_days.begin(), out.cell_days.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out.cell_durations.reserve(cell_durations_.size());
  for (const auto& [cell, entry] : cell_durations_) {
    out.cell_durations.push_back({cell, entry.first, entry.second.state()});
  }
  std::sort(out.cell_durations.begin(), out.cell_durations.end(),
            [](const auto& a, const auto& b) { return a.cell < b.cell; });

  // Heap layout is an implementation detail; export the records sorted by
  // the integration key (the heap pops in exactly that order anyway).
  auto heap = reorder_;
  out.reorder.reserve(heap.size());
  while (!heap.empty()) {
    out.reorder.push_back(heap.top());
    heap.pop();
  }

  out.active_bins.reserve(active_bins_.size());
  for (auto& [bin, active] : active_bins_) {
    active.compact();
    ShardCheckpoint::ActiveBin image;
    image.bin = bin;
    image.cars = active.cars;
    for (const std::uint64_t key : active.keys) {
      const std::uint32_t cell = key_cell(key);
      if (image.per_cell.empty() || image.per_cell.back().first != cell) {
        image.per_cell.emplace_back(cell, std::vector<std::uint32_t>{});
      }
      image.per_cell.back().second.push_back(static_cast<std::uint32_t>(key));
    }
    out.active_bins.push_back(std::move(image));
  }
  out.folded_bins.assign(folded_bins_.begin(), folded_bins_.end());
}

void ShardState::load(const ShardCheckpoint& in) {
  records_ = in.records;
  max_day_seen_ = in.max_day_seen;
  closed_ = in.closed;
  reorder_peak_ = in.reorder_peak;
  sessions_closed_ = in.sessions_closed;
  session_span_.restore(in.session_span);
  usage_ = in.usage;
  cars_per_day_.assign(in.cars_per_day.begin(), in.cars_per_day.end());

  cars_.clear();
  for (const ShardCheckpoint::Car& car : in.cars) {
    if (car.local_index >= cars_.size()) cars_.resize(car.local_index + 1);
    CarState& state = cars_[car.local_index];
    state.seen = true;
    state.session = cdr::SessionBuilder(config_.session_gap);
    if (car.session_open) state.session.resume(car.open_session);
    state.full.restore(car.full);
    state.trunc.restore(car.trunc);
    state.days.assign_words(car.day_words);
  }

  cell_days_.clear();
  for (const auto& [cell, words] : in.cell_days) {
    cell_days_[cell].assign_words(words);
  }

  cell_durations_.clear();
  for (const ShardCheckpoint::CellDuration& entry : in.cell_durations) {
    auto [it, inserted] = cell_durations_.try_emplace(
        entry.cell, std::piecewise_construct, std::forward_as_tuple(0),
        std::forward_as_tuple(0.5));
    it->second.first = entry.connections;
    it->second.second.restore(entry.median);
  }

  reorder_ = {};
  for (const cdr::Connection& c : in.reorder) reorder_.push(c);

  active_bins_.clear();
  for (const ShardCheckpoint::ActiveBin& image : in.active_bins) {
    ActiveBin& bin = active_bins_[image.bin];
    bin.cars.insert(bin.cars.end(), image.cars.begin(), image.cars.end());
    for (const auto& [cell, members] : image.per_cell) {
      for (const std::uint32_t car : members) {
        bin.keys.push_back(bin_key(cell, car));
      }
    }
  }
  folded_bins_.assign(in.folded_bins.begin(), in.folded_bins.end());
}

}  // namespace ccms::stream
