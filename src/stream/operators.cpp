#include "stream/operators.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdr/clean.h"
#include "core/passes.h"
#include "util/time.h"

namespace ccms::stream {

void ShardState::ActiveBin::add(std::uint32_t car, std::uint32_t cell) {
  keys.push_back(key(cell, car));
  // Bounds a bin's duplicates the way the batch accumulators bound their
  // pending buffers; counting from the last compaction keeps a bin with
  // many distinct keys from sorting on every observation.
  if (keys.size() - compacted >= core::kPassFlushRecords) compact();
}

void ShardState::ActiveBin::compact() {
  if (keys.size() == compacted) return;  // nothing added since the last one
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  compacted = keys.size();
}

std::vector<std::uint32_t> ShardState::ActiveBin::distinct_cars(
    const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint32_t> cars_of_keys;
  cars_of_keys.reserve(keys.size());
  for (const std::uint64_t k : keys) cars_of_keys.push_back(car_of(k));
  std::sort(cars_of_keys.begin(), cars_of_keys.end());
  cars_of_keys.erase(std::unique(cars_of_keys.begin(), cars_of_keys.end()),
                     cars_of_keys.end());
  return cars_of_keys;
}

void ShardState::ActiveBin::clear() {
  keys.clear();  // keeps its capacity for the bin that reuses the slot
  compacted = 0;
  cars = 0;
  recount = false;
}

BinCounts ShardState::count_bin(std::int64_t bin, const ActiveBin& active) {
  BinCounts counts;
  counts.bin = bin;
  counts.cars = active.recount
                    ? static_cast<std::uint32_t>(
                          ActiveBin::distinct_cars(active.keys).size())
                    : active.cars;
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
    : config_(config),
      shard_index_(shard_index),
      shards_(static_cast<std::uint32_t>(std::max(1, config.shards))) {
  if (config_.study_days > 0) {
    cars_per_day_.resize(static_cast<std::size_t>(config_.study_days), 0);
  }
  if (config_.fleet_size > 0) {
    cars_.reserve((config_.fleet_size + shards_ - 1) / shards_);
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
  while (config_.recent_bins > 0 &&
         folded_bins_.size() > static_cast<std::size_t>(config_.recent_bins)) {
    folded_bins_.pop_front();
  }
  folded_final_ = folded_bins_.size();
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

ShardState::CarState& ShardState::car_state(std::uint32_t local) {
  if (local >= cars_.size()) cars_.resize(std::size_t{local} + 1);
  CarState& state = cars_[local];
  if (!state.seen) {
    state.seen = true;
    state.session = cdr::SessionBuilder(config_.session_gap);
  }
  return state;
}

std::uint32_t ShardState::cell_index(std::uint32_t cell) {
  // Open addressing, linear probing, at most half full; a slot holds
  // (cell << 32) | (index + 1), so 0 marks an empty slot for any cell id.
  const auto probe = [&](std::uint32_t id) {
    const std::size_t mask = cell_slots_.size() - 1;
    const int shift = 64 - std::countr_zero(cell_slots_.size());
    std::size_t at = static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> shift);
    while (cell_slots_[at] != 0 && (cell_slots_[at] >> 32) != id) {
      at = (at + 1) & mask;
    }
    return at;
  };
  if (!cell_slots_.empty()) {
    const std::uint64_t slot = cell_slots_[probe(cell)];
    if (slot != 0) return static_cast<std::uint32_t>(slot) - 1;
  }
  if (2 * (cells_by_id_.size() + 1) > cell_slots_.size()) {
    std::vector<std::uint64_t> old = std::move(cell_slots_);
    cell_slots_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    for (const std::uint64_t slot : old) {
      if (slot != 0) {
        cell_slots_[probe(static_cast<std::uint32_t>(slot >> 32))] = slot;
      }
    }
  }
  const auto index = static_cast<std::uint32_t>(cells_by_id_.size());
  cell_slots_[probe(cell)] = (std::uint64_t{cell} << 32) | (index + 1);
  // Days clamp into a positive horizon, so a row that wide never widens.
  const std::size_t words =
      config_.study_days > 0
          ? static_cast<std::size_t>(config_.study_days - 1) / 64 + 1
          : 0;
  cell_rows_.push_back({cell_words_.size(), words});
  cell_words_.resize(cell_words_.size() + words, 0);
  cell_connections_.push_back(0);
  cell_medians_.emplace_back(0.5);
  cell_lists_.push_back(0);
  cells_by_id_.emplace_back(cell, index);
  return index;
}

void ShardState::widen_row(std::uint32_t cell_at, std::size_t words) {
  // Doubling bounds the words the moved rows leave behind by the live ones.
  DayRow& row = cell_rows_[cell_at];
  const std::size_t at = cell_words_.size();
  cell_words_.resize(at + std::max(words, 2 * row.words), 0);
  std::copy_n(cell_words_.begin() + static_cast<std::ptrdiff_t>(row.at),
              row.words, cell_words_.begin() + static_cast<std::ptrdiff_t>(at));
  row = {at, cell_words_.size() - at};
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
ShardState::sorted_cells() {
  // Cells interned since the last call sit unsorted after the prefix.
  if (cells_sorted_ < cells_by_id_.size()) {
    const auto tail =
        cells_by_id_.begin() + static_cast<std::ptrdiff_t>(cells_sorted_);
    std::sort(tail, cells_by_id_.end());
    std::inplace_merge(cells_by_id_.begin(), tail, cells_by_id_.end());
    cells_sorted_ = cells_by_id_.size();
  }
  return cells_by_id_;
}

void ShardState::mark_days(CarState& state, std::uint32_t cell_at,
                           time::Seconds start, time::Seconds end) {
  // The batch presence convention, via the shared core helper: the last
  // instant of a half-open interval is end-1, days clamp into the horizon.
  const core::DayRange range =
      core::study_day_range(start, end, config_.study_days);
  if (range.first > range.last) return;
  max_day_seen_ = std::max(max_day_seen_, range.last);
  const auto words_needed = static_cast<std::size_t>(range.last / 64) + 1;
  if (words_needed > cell_rows_[cell_at].words) {
    widen_row(cell_at, words_needed);
  }
  std::uint64_t* words = cell_words_.data() + cell_rows_[cell_at].at;
  for (std::int64_t d = range.first; d <= range.last; ++d) {
    if (state.days.set(d)) {
      const auto di = static_cast<std::size_t>(d);
      if (di >= cars_per_day_.size()) cars_per_day_.resize(di + 1, 0);
      ++cars_per_day_[di];
    }
    words[d / 64] |= std::uint64_t{1} << (d % 64);
  }
}

void ShardState::open_window(std::int64_t first, std::int64_t last) {
  const std::int64_t low =
      window_size_ == 0 ? first : std::min(first, window_first_);
  const std::int64_t high =
      window_size_ == 0
          ? last
          : std::max(last, window_first_ +
                               static_cast<std::int64_t>(window_size_) - 1);
  // Unsigned: a record's bins lie within +-2^63 / 900 and a load checks
  // its bins' spread first, so this difference is exact where a signed one
  // could overflow.
  const std::uint64_t span =
      static_cast<std::uint64_t>(high) - static_cast<std::uint64_t>(low) + 1;
  if (span > static_cast<std::uint64_t>(kMaxOpenBins)) {
    throw std::length_error(
        "stream shard: open 15-minute bins " + std::to_string(low) + ".." +
        std::to_string(high) + " span more than " +
        std::to_string(kMaxOpenBins) + " bins");
  }
  if (span > window_.size()) {
    std::vector<ActiveBin> grown(std::bit_ceil(static_cast<std::size_t>(span)));
    for (std::size_t i = 0; i < window_size_; ++i) {
      grown[i] = std::move(window_[(window_head_ + i) & (window_.size() - 1)]);
    }
    window_ = std::move(grown);
    window_head_ = 0;
  }
  if (window_size_ > 0) {
    // Slots outside the window are always clear, so a bin below the oldest
    // open one (a record out of start order) gets clear slots in front.
    const auto front = static_cast<std::size_t>(window_first_ - low);
    window_head_ = (window_head_ - front) & (window_.size() - 1);
  }
  window_first_ = low;
  window_size_ = static_cast<std::size_t>(span);
}

void ShardState::mark_bins(CarState& state, bool own_car, std::uint32_t car,
                           std::uint32_t cell, std::int64_t first,
                           std::int64_t last) {
  // The car's bin marks vouch for its counts only for its own records in
  // its start order: bins the car reached already (up to bin_mark) count
  // it, and an in-order record starts at or after bin_anchor, so its bins
  // up to the mark count it too. Every other bin it reaches is new. Any
  // other record makes the bins it reaches up to the mark recount from
  // their keys, and a bin reopened at or below the highest bin ever opened
  // (a folded one, say) always does.
  const bool in_order = own_car && first >= state.bin_anchor;
  for (std::int64_t b = first; b <= last; ++b) {
    ActiveBin& bin = open_bin(b);
    if (bin.keys.empty() && b <= top_bin_) bin.recount = true;
    if (!own_car) {
      bin.recount = true;
    } else if (b > state.bin_mark) {
      ++bin.cars;
    } else if (!in_order) {
      bin.recount = true;
    }
    bin.add(car, cell);
  }
  top_bin_ = std::max(top_bin_, last);
  if (!own_car) return;  // its marks would be another car's

  // Keep [bin_anchor, bin_mark] a run every bin of which counts the car.
  if (in_order ? first > state.bin_mark + 1 : last + 1 >= state.bin_anchor) {
    state.bin_anchor = first;
  }
  state.bin_mark = std::max(state.bin_mark, last);
}

void ShardState::reset_for_load() {
  cars_.clear();
  cell_slots_.clear();
  cell_rows_.clear();
  cell_words_.clear();
  cell_connections_.clear();
  cell_medians_.clear();
  cell_lists_.clear();
  cells_by_id_.clear();
  cells_sorted_ = 0;
  for (std::size_t i = 0; i < window_size_; ++i) {
    open_bin(window_first_ + static_cast<std::int64_t>(i)).clear();
  }
  window_size_ = 0;
  top_bin_ = kNoBin;
  folded_bins_.clear();
  folded_final_ = 0;
}

void ShardState::load_bin(std::int64_t b, std::vector<std::uint64_t> keys,
                          const std::vector<std::uint32_t>& cars) {
  open_window(b, b);
  ActiveBin& bin = open_bin(b);
  bin.keys = std::move(keys);
  bin.compacted = bin.keys.size();
  bin.cars = static_cast<std::uint32_t>(cars.size());
  // The shard that wrote the bin counted each of its cars in a run of
  // bins ending at the car's highest; a car with no integrated record
  // here, or another shard's, has no marks, so the bin recounts.
  for (const std::uint32_t car : cars) {
    const std::uint32_t local = car / shards_;
    if (car - local * shards_ != static_cast<std::uint32_t>(shard_index_) ||
        local >= cars_.size() || !cars_[local].seen) {
      bin.recount = true;
      continue;
    }
    CarState& state = cars_[local];
    if (state.bin_mark != b - 1) state.bin_anchor = b;
    state.bin_mark = b;
  }
  top_bin_ = b;
}

void ShardState::fold_bins(time::Seconds until) {
  // A bin [b*900, (b+1)*900) is final once `until` passes its end: a
  // watermark, or the start of the record being integrated, since every
  // record integrated later starts at or after it. Folding compacts its
  // keys once and keeps only the counts.
  const bool all = until == std::numeric_limits<time::Seconds>::max();
  while (window_size_ > 0 &&
         (all || (window_first_ + 1) * time::kSecondsPerBin15 <= until)) {
    ActiveBin& bin = open_bin(window_first_);
    if (!bin.keys.empty()) {
      bin.compact();
      folded_bins_.push_back(count_bin(window_first_, bin));
      bin.clear();
    }
    window_head_ = (window_head_ + 1) & (window_.size() - 1);
    ++window_first_;
    --window_size_;
  }
}

void ShardState::integrate(const cdr::Connection& c) {
  // Supervision hook: a throw here (before any state mutation) degrades the
  // shard but leaves its operators consistent as of the previous record.
  if (config_.operator_hook) config_.operator_hook(shard_index_, c);
  fold_bins(c.start);
  const core::BinRange bins = core::bin15_range(c.start, c.end());
  if (bins.first <= bins.last) open_window(bins.first, bins.last);

  ++records_;
  const std::uint32_t car = c.car.value;
  const std::uint32_t cell = c.cell.value;
  const std::uint32_t local = car / shards_;
  const bool own_car =
      car - local * shards_ == static_cast<std::uint32_t>(shard_index_);
  CarState& state = car_state(local);

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

  const std::uint32_t cell_at = cell_index(cell);
  cell_lists_[cell_at] = kDayList | kDurationList;
  mark_days(state, cell_at, c.start, c.end());
  core::add_connection(usage_, c);
  ++cell_connections_[cell_at];
  cell_medians_[cell_at].add(static_cast<double>(c.duration_s));

  if (bins.first <= bins.last) {
    mark_bins(state, own_car, car, cell, bins.first, bins.last);
  }
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

  snap.cars.reserve(cars_.size());
  for (std::size_t i = 0; i < cars_.size(); ++i) {
    const CarState& state = cars_[i];
    if (!state.seen) continue;
    ShardSnapshot::CarTotals totals;
    totals.car = static_cast<std::uint32_t>(i) * shards_ +
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

  snap.day_cells.reserve(cells_by_id_.size());
  snap.day_rows.reserve(cells_by_id_.size() + 1);
  snap.day_rows.push_back(0);
  snap.day_words.reserve(cell_words_.size());
  snap.cell_stats.reserve(cells_by_id_.size());
  for (const auto& [cell, at] : sorted_cells()) {
    if ((cell_lists_[at] & kDayList) != 0) {
      snap.day_cells.push_back(cell);
      const auto row =
          cell_words_.begin() + static_cast<std::ptrdiff_t>(cell_rows_[at].at);
      snap.day_words.insert(
          snap.day_words.end(), row,
          row + static_cast<std::ptrdiff_t>(cell_rows_[at].words));
      snap.day_rows.push_back(snap.day_words.size());
    }
    if ((cell_lists_[at] & kDurationList) != 0) {
      snap.cell_stats.push_back(
          {cell, cell_connections_[at], cell_medians_[at].value()});
    }
  }

  // Bins folded inside an advance that threw are still open as far as the
  // watermark goes: provisional, as they were before they folded.
  snap.bins.reserve(folded_bins_.size() + window_size_);
  snap.bins.assign(folded_bins_.begin(), folded_bins_.end());
  for (std::size_t i = folded_final_; i < snap.bins.size(); ++i) {
    snap.bins[i].provisional = true;
  }
  for (std::size_t i = 0; i < window_size_; ++i) {
    const std::int64_t b = window_first_ + static_cast<std::int64_t>(i);
    ActiveBin& active = open_bin(b);
    if (active.keys.empty()) continue;
    active.compact();
    BinCounts counts = count_bin(b, active);
    counts.provisional = true;
    snap.bins.push_back(std::move(counts));
  }
  return snap;
}

}  // namespace ccms::stream
