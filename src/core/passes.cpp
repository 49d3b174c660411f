#include "core/passes.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdr/clean.h"
#include "stats/quantile.h"

namespace ccms::core {

namespace {

/// Merge-joins sorted (value, count) runs from `add_*` into `values`/`counts`
/// (both strictly ascending): counts of equal values add. The run form is a
/// canonical encoding of the underlying multiset, so any merge order yields
/// the same store. The join runs back to front inside `values`/`counts`
/// grown by the added runs, then closes the gap that equal values leave, so
/// a store merged into chunk after chunk reallocates only as its capacity
/// doubles: a fresh store per merge, allocated on whichever thread merges
/// and freed on the next, fragments every thread's malloc arena.
template <typename V>
void merge_runs(std::vector<V>& values, std::vector<std::uint64_t>& counts,
                const std::vector<V>& add_values,
                const std::vector<std::uint64_t>& add_counts) {
  if (add_values.empty()) return;
  if (values.empty()) {
    values = add_values;
    counts = add_counts;
    return;
  }
  const std::size_t n = values.size();
  const std::size_t m = add_values.size();
  values.resize(n + m);
  counts.resize(n + m);
  // [0, i) holds the unread runs of the store, [k, n + m) the merged tail;
  // k - i counts the equal values joined so far, so writes never pass reads.
  std::size_t i = n;
  std::size_t j = m;
  std::size_t k = n + m;
  while (j > 0) {
    --k;
    if (i > 0 && add_values[j - 1] < values[i - 1]) {
      --i;
      values[k] = values[i];
      counts[k] = counts[i];
    } else if (i > 0 && !(values[i - 1] < add_values[j - 1])) {
      --i;
      --j;
      values[k] = values[i];
      counts[k] = counts[i] + add_counts[j];
    } else {
      --j;
      values[k] = add_values[j];
      counts[k] = add_counts[j];
    }
  }
  if (k != i) {
    const auto gap = static_cast<std::ptrdiff_t>(k - i);
    std::move(values.begin() + gap + static_cast<std::ptrdiff_t>(i),
              values.end(), values.begin() + static_cast<std::ptrdiff_t>(i));
    std::move(counts.begin() + gap + static_cast<std::ptrdiff_t>(i),
              counts.end(), counts.begin() + static_cast<std::ptrdiff_t>(i));
    values.resize(n + m - (k - i));
    counts.resize(n + m - (k - i));
  }
}

/// Sorts `raw` and run-length encodes it into `values`/`counts`.
template <typename V>
void encode_runs(std::vector<V>& raw, std::vector<V>& values,
                 std::vector<std::uint64_t>& counts) {
  std::sort(raw.begin(), raw.end());
  values.clear();
  counts.clear();
  for (std::size_t i = 0; i < raw.size();) {
    std::size_t j = i + 1;
    while (j < raw.size() && raw[j] == raw[i]) ++j;
    values.push_back(raw[i]);
    counts.push_back(j - i);
    i = j;
  }
}

[[noreturn]] void throw_unknown_cell(const cdr::Connection& c,
                                     std::size_t table_size) {
  throw std::invalid_argument(
      "car " + std::to_string(c.car.value) + " names cell " +
      std::to_string(c.cell.value) + ", past the cell table of " +
      std::to_string(table_size) + " cells");
}

/// `cells.info(c.cell)`, or std::invalid_argument for a cell past the
/// table.
const net::CellInfo& cell_info(const net::CellTable& cells,
                               const cdr::Connection& c) {
  if (c.cell.value >= cells.size()) [[unlikely]] {
    throw_unknown_cell(c, cells.size());
  }
  return cells.info(c.cell);
}

bool bit(const std::uint64_t* row, std::size_t bin) {
  return ((row[bin / 64] >> (bin % 64)) & 1U) != 0;
}

}  // namespace

bool DayBits::set(std::int64_t day) {
  const auto word = static_cast<std::size_t>(day / 64);
  const std::uint64_t bit = 1ULL << (day % 64);
  if (word >= words_.size()) words_.resize(word + 1, 0);
  const bool fresh = (words_[word] & bit) == 0;
  words_[word] |= bit;
  return fresh;
}

bool DayBits::test(std::int64_t day) const {
  const auto word = static_cast<std::size_t>(day / 64);
  if (word >= words_.size()) return false;
  return (words_[word] & (1ULL << (day % 64))) != 0;
}

int DayBits::count() const {
  int total = 0;
  for (const std::uint64_t w : words_) total += std::popcount(w);
  return total;
}

void DayBits::merge(const DayBits& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

// --- Presence ---------------------------------------------------------------

PresenceAccumulator::PresenceAccumulator(int study_days)
    : days_(std::max(1, study_days)),
      cars_per_day_(static_cast<std::size_t>(days_), 0) {}

void PresenceAccumulator::add_car(CarId /*car*/,
                                  std::span<const cdr::Connection> records) {
  scratch_.reset();
  for (const cdr::Connection& c : records) {
    const DayRange range = study_day_range(c.start, c.end(), days_);
    DayBits& cell_bits = cell_days_[c.cell.value];
    for (std::int64_t d = range.first; d <= range.last; ++d) {
      if (scratch_.set(d)) ++cars_per_day_[static_cast<std::size_t>(d)];
      cell_bits.set(d);
    }
  }
}

void PresenceAccumulator::merge(PresenceAccumulator&& other) {
  for (std::size_t d = 0; d < cars_per_day_.size(); ++d) {
    cars_per_day_[d] += other.cars_per_day_[d];
  }
  for (auto& [cell, bits] : other.cell_days_) {
    cell_days_[cell].merge(bits);
  }
}

DailyPresence PresenceAccumulator::finalize(std::uint32_t fleet_size) const {
  return presence_from_counts(fleet_size, cars_per_day_, cell_days_);
}

// --- Connected time ---------------------------------------------------------

ConnectedTimeAccumulator::ConnectedTimeAccumulator(int study_days,
                                                   std::int32_t truncation_cap)
    : study_days_(study_days),
      study_seconds_(static_cast<double>(study_days) * time::kSecondsPerDay),
      cap_(truncation_cap) {}

void ConnectedTimeAccumulator::add_car(
    CarId /*car*/, std::span<const cdr::Connection> records) {
  if (study_seconds_ <= 0) return;
  // Records are start-ordered within a car, and a union of start-ordered
  // intervals does not depend on how equal starts are ordered, so feeding
  // IntervalUnionRun directly yields the integer totals
  // union_connected_time[_truncated] compute after their sort, without an
  // interval vector. add() skips empty intervals, which is those
  // functions' duration > 0 filter.
  cdr::IntervalUnionRun full;
  cdr::IntervalUnionRun truncated;
  for (const cdr::Connection& c : records) {
    full.add(c.start, c.end());
    truncated.add(c.start,
                  c.start + cdr::truncated_duration(c.duration_s, cap_));
  }
  full_.push_back(static_cast<double>(full.total()) / study_seconds_);
  truncated_.push_back(static_cast<double>(truncated.total()) /
                       study_seconds_);
}

void ConnectedTimeAccumulator::merge(ConnectedTimeAccumulator&& other) {
  full_.insert(full_.end(), other.full_.begin(), other.full_.end());
  truncated_.insert(truncated_.end(), other.truncated_.begin(),
                    other.truncated_.end());
}

ConnectedTime ConnectedTimeAccumulator::finalize() && {
  if (study_seconds_ <= 0) {
    ConnectedTime result;
    result.study_days = study_days_;
    return result;
  }
  return connected_time_from_fractions(std::move(full_), std::move(truncated_),
                                       study_days_);
}

// --- Days on network --------------------------------------------------------

DaysAccumulator::DaysAccumulator(int study_days) : study_days_(study_days) {}

void DaysAccumulator::add_car(CarId car,
                              std::span<const cdr::Connection> records) {
  scratch_.reset();
  int count = 0;
  const int horizon = std::max(1, study_days_);
  for (const cdr::Connection& c : records) {
    const DayRange range = study_day_range(c.start, c.end(), horizon);
    for (std::int64_t d = range.first; d <= range.last; ++d) {
      if (scratch_.set(d)) ++count;
    }
  }
  cars_.push_back(car);
  days_per_car_.push_back(count);
}

void DaysAccumulator::merge(DaysAccumulator&& other) {
  cars_.insert(cars_.end(), other.cars_.begin(), other.cars_.end());
  days_per_car_.insert(days_per_car_.end(), other.days_per_car_.begin(),
                       other.days_per_car_.end());
}

DaysOnNetwork DaysAccumulator::finalize() && {
  return days_on_network_from_counts(std::move(cars_),
                                     std::move(days_per_car_), study_days_);
}

// --- Busy time --------------------------------------------------------------

BusyTimeAccumulator::BusyTimeAccumulator(const BusyMap* map) : map_(map) {}

void BusyTimeAccumulator::add_car(CarId car,
                                  std::span<const cdr::Connection> records) {
  constexpr time::Seconds kBin = time::kSecondsPerBin15;
  time::Seconds busy = 0;
  time::Seconds total = 0;
  for (const cdr::Connection& c : records) {
    const time::Seconds end = c.end();
    if (end <= c.start) continue;
    // The connection is cut into slices at 15-min bin edges. They tile
    // [start, end), so their lengths sum to the whole span.
    total += end - c.start;
    const std::uint64_t* row = map_->row(c.cell);
    if (row == nullptr) {
      if (map_->rest()) busy += end - c.start;
      continue;
    }
    if (c.start < 0) {
      // The first slice ends at the truncating (t / 900 + 1) * 900, which
      // for a negative t is not the next bin edge, so each slice's bin is
      // taken from its own start.
      for (time::Seconds t = c.start; t < end;) {
        const time::Seconds slice_end = std::min((t / kBin + 1) * kBin, end);
        if (bit(row, static_cast<std::size_t>(time::bin15_of_week(t)))) {
          busy += slice_end - t;
        }
        t = slice_end;
      }
      continue;
    }
    // From a start at or past the epoch (a Monday 00:00), bin of week is
    // (t / 900) mod 672, and every slice after the first starts on a bin
    // edge, so the bins step by one around the week.
    const time::Seconds q = c.start / kBin;
    auto bin = static_cast<std::size_t>(q % time::kBins15PerWeek);
    time::Seconds t = c.start;
    time::Seconds edge = (q + 1) * kBin;
    for (;;) {
      const time::Seconds slice_end = std::min(edge, end);
      if (bit(row, bin)) busy += slice_end - t;
      if (slice_end == end) break;
      t = slice_end;
      edge += kBin;
      if (++bin == time::kBins15PerWeek) bin = 0;
    }
  }
  CarBusyShare entry;
  entry.car = car;
  entry.connected = total;
  entry.share =
      total > 0 ? static_cast<double>(busy) / static_cast<double>(total) : 0.0;
  per_car_.push_back(entry);
}

void BusyTimeAccumulator::merge(BusyTimeAccumulator&& other) {
  per_car_.insert(per_car_.end(), other.per_car_.begin(),
                  other.per_car_.end());
}

BusyTime BusyTimeAccumulator::finalize() && {
  BusyTime result;
  result.per_car = std::move(per_car_);

  std::vector<double> shares;
  shares.reserve(result.per_car.size());
  std::size_t over_half = 0;
  std::size_t all = 0;
  for (const CarBusyShare& e : result.per_car) {
    shares.push_back(e.share);
    if (e.share > 0.5) ++over_half;
    if (e.share >= 0.95) ++all;
  }
  result.shares = stats::EmpiricalDistribution(std::move(shares));
  if (!result.per_car.empty()) {
    result.fraction_over_half =
        static_cast<double>(over_half) / result.per_car.size();
    result.fraction_all = static_cast<double>(all) / result.per_car.size();
  }
  return result;
}

// --- Handovers --------------------------------------------------------------

HandoverAccumulator::HandoverAccumulator(const net::CellTable* cells,
                                         time::Seconds journey_gap)
    : cells_(cells), journey_gap_(journey_gap) {}

void HandoverAccumulator::add_car(CarId /*car*/,
                                  std::span<const cdr::Connection> records) {
  const std::size_t n = records.size();
  for (std::size_t i = 0; i < n;) {
    // One journey: records [i, j).
    const net::CellInfo* prev = &cell_info(*cells_, records[i]);
    time::Seconds end = records[i].end();
    std::size_t handovers = 0;
    scratch_stations_.clear();
    scratch_stations_.push_back(prev->station.value);
    std::size_t j = i + 1;
    for (; j < n && records[j].start - end <= journey_gap_; ++j) {
      const net::CellInfo& info = cell_info(*cells_, records[j]);
      const net::HandoverType type = net::classify_handover(*prev, info);
      ++counts_[static_cast<std::size_t>(type)];
      if (type != net::HandoverType::kNone) ++handovers;
      // A repeat of the previous leg's station cannot change the distinct
      // count, so only station changes are kept for the dedup.
      if (info.station.value != scratch_stations_.back()) {
        scratch_stations_.push_back(info.station.value);
      }
      end = std::max(end, records[j].end());
      prev = &info;
    }
    ++session_count_;
    per_session_.add(handovers);
    if (scratch_stations_.size() > 2) {
      std::sort(scratch_stations_.begin(), scratch_stations_.end());
      scratch_stations_.erase(
          std::unique(scratch_stations_.begin(), scratch_stations_.end()),
          scratch_stations_.end());
    }
    stations_.add(scratch_stations_.size());
    i = j;
  }
}

void HandoverAccumulator::merge(HandoverAccumulator&& other) {
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    counts_[t] += other.counts_[t];
  }
  per_session_.merge(other.per_session_);
  stations_.merge(other.stations_);
  session_count_ += other.session_count_;
}

HandoverStats HandoverAccumulator::finalize() && {
  HandoverStats result;
  result.counts = counts_;
  result.session_count = session_count_;
  result.per_session = per_session_.distribution();
  result.stations_per_session = stations_.distribution();
  result.median = result.per_session.quantile(0.5);
  result.p70 = result.per_session.quantile(0.7);
  result.p90 = result.per_session.quantile(0.9);
  return result;
}

// --- Carrier usage ----------------------------------------------------------

CarrierUsageAccumulator::CarrierUsageAccumulator(const net::CellTable* cells)
    : cells_(cells) {}

void CarrierUsageAccumulator::add_car(
    CarId /*car*/, std::span<const cdr::Connection> records) {
  ++car_count_;
  std::array<bool, net::kCarrierCount> used{};
  for (const cdr::Connection& c : records) {
    const CarrierId carrier = cell_info(*cells_, c).carrier;
    used[carrier.value] = true;
    seconds_[carrier.value] += c.duration_s;
  }
  for (std::size_t k = 0; k < net::kCarrierCount; ++k) {
    if (used[k]) ++car_counts_[k];
  }
}

void CarrierUsageAccumulator::merge(const CarrierUsageAccumulator& other) {
  car_count_ += other.car_count_;
  for (std::size_t k = 0; k < net::kCarrierCount; ++k) {
    car_counts_[k] += other.car_counts_[k];
    seconds_[k] += other.seconds_[k];
  }
}

CarrierUsage CarrierUsageAccumulator::finalize() const {
  CarrierUsage result;
  result.car_count = car_count_;
  std::int64_t total_seconds = 0;
  for (std::size_t k = 0; k < net::kCarrierCount; ++k) {
    result.seconds[k] = static_cast<double>(seconds_[k]);
    total_seconds += seconds_[k];
  }
  for (std::size_t k = 0; k < net::kCarrierCount; ++k) {
    result.cars_fraction[k] =
        car_count_ > 0 ? static_cast<double>(car_counts_[k]) /
                             static_cast<double>(car_count_)
                       : 0.0;
    result.time_fraction[k] =
        total_seconds > 0
            ? result.seconds[k] / static_cast<double>(total_seconds)
            : 0.0;
  }
  return result;
}

// --- Concurrency counts -----------------------------------------------------

ConcurrencyCountsAccumulator::ConcurrencyCountsAccumulator(
    int study_days, const CellMask* mask)
    : total_bins_(static_cast<std::int64_t>(std::max(1, study_days)) *
                  time::kBins15PerDay),
      mask_(mask) {}

void ConcurrencyCountsAccumulator::add_car(
    CarId /*car*/, std::span<const cdr::Connection> records) {
  scratch_.clear();
  for (const cdr::Connection& c : records) {
    if (mask_ != nullptr && !mask_->counts(c.cell)) continue;
    const std::int64_t b0 = std::clamp<std::int64_t>(
        c.start / time::kSecondsPerBin15, 0, total_bins_ - 1);
    const std::int64_t b1 = std::clamp<std::int64_t>(
        (c.end() - 1) / time::kSecondsPerBin15, 0, total_bins_ - 1);
    for (std::int64_t b = b0; b <= b1; ++b) {
      scratch_.push_back((static_cast<std::uint64_t>(c.cell.value) << 24) |
                         static_cast<std::uint64_t>(b));
    }
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  pending_.insert(pending_.end(), scratch_.begin(), scratch_.end());
  if (pending_.size() >= kPassFlushRecords) flush_pending();
}

void ConcurrencyCountsAccumulator::flush_pending() {
  if (pending_.empty()) return;
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> counts;
  encode_runs(pending_, values, counts);
  merge_runs(keys_, counts_, values, counts);
  pending_.clear();
}

void ConcurrencyCountsAccumulator::merge(ConcurrencyCountsAccumulator&& other) {
  other.flush_pending();
  flush_pending();
  merge_runs(keys_, counts_, other.keys_, other.counts_);
}

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
ConcurrencyCountsAccumulator::take_counts() && {
  flush_pending();
  return {std::move(keys_), std::move(counts_)};
}

// --- Cell sessions ----------------------------------------------------------

CellSessionsAccumulator::CellSessionsAccumulator(std::int32_t truncation_cap)
    : cap_(truncation_cap) {}

void CellSessionsAccumulator::flush_pending() {
  if (pending_.empty()) return;
  std::vector<std::int32_t> values;
  std::vector<std::uint64_t> counts;
  encode_runs(pending_, values, counts);
  merge_runs(run_values_, run_counts_, values, counts);
  pending_.clear();
}

void CellSessionsAccumulator::add_car(
    CarId /*car*/, std::span<const cdr::Connection> records) {
  for (const cdr::Connection& c : records) {
    // One compare keeps both negative and too-large durations out.
    if (static_cast<std::uint32_t>(c.duration_s) <
        static_cast<std::uint32_t>(kDenseDurationLimit)) {
      hist_.add(static_cast<std::size_t>(c.duration_s));
      continue;
    }
    pending_.push_back(c.duration_s);
    if (pending_.size() >= kPassFlushRecords) flush_pending();
  }
}

void CellSessionsAccumulator::merge(CellSessionsAccumulator&& other) {
  hist_.merge(other.hist_);
  other.flush_pending();
  flush_pending();
  merge_runs(run_values_, run_counts_, other.run_values_, other.run_counts_);
}

CellSessionStats CellSessionsAccumulator::finalize() && {
  flush_pending();
  // The store holds only values below 0 or at or past the limit, so its
  // negative runs, the histogram's non-zero bins and its remaining runs
  // ascend end to end.
  const auto split = static_cast<std::size_t>(
      std::lower_bound(run_values_.begin(), run_values_.end(), 0) -
      run_values_.begin());
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
  const auto take_runs = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      values.push_back(static_cast<double>(run_values_[k]));
      counts.push_back(run_counts_[k]);
    }
  };
  take_runs(0, split);
  const std::vector<std::uint64_t>& hist = hist_.counts();
  for (std::size_t v = 0; v < hist.size(); ++v) {
    if (hist[v] == 0) continue;
    values.push_back(static_cast<double>(v));
    counts.push_back(hist[v]);
  }
  take_runs(split, run_values_.size());
  auto durations = stats::EmpiricalDistribution::from_sorted_runs(
      std::move(values), std::move(counts));
  CellSessionStats result = summarize_cell_sessions(durations, cap_);
  result.durations = std::move(durations);
  return result;
}

}  // namespace ccms::core
