#include "core/passes.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "cdr/clean.h"
#include "stats/quantile.h"

namespace ccms::core {

namespace {

/// Merge-joins sorted (value, count) runs from `add_*` into `values`/`counts`
/// (both strictly ascending): counts of equal values add. The run form is a
/// canonical encoding of the underlying multiset, so any merge order yields
/// the same store.
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
  std::vector<V> merged_values;
  std::vector<std::uint64_t> merged_counts;
  merged_values.reserve(values.size() + add_values.size());
  merged_counts.reserve(values.size() + add_values.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < values.size() || j < add_values.size()) {
    if (j >= add_values.size() ||
        (i < values.size() && values[i] < add_values[j])) {
      merged_values.push_back(values[i]);
      merged_counts.push_back(counts[i]);
      ++i;
    } else if (i >= values.size() || add_values[j] < values[i]) {
      merged_values.push_back(add_values[j]);
      merged_counts.push_back(add_counts[j]);
      ++j;
    } else {
      merged_values.push_back(values[i]);
      merged_counts.push_back(counts[i] + add_counts[j]);
      ++i;
      ++j;
    }
  }
  values = std::move(merged_values);
  counts = std::move(merged_counts);
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

void bump_histogram(std::vector<std::uint64_t>& hist, std::size_t value) {
  if (value >= hist.size()) hist.resize(value + 1, 0);
  ++hist[value];
}

stats::EmpiricalDistribution distribution_from_histogram(
    const std::vector<std::uint64_t>& hist) {
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
  for (std::size_t v = 0; v < hist.size(); ++v) {
    if (hist[v] == 0) continue;
    values.push_back(static_cast<double>(v));
    counts.push_back(hist[v]);
  }
  return stats::EmpiricalDistribution::from_sorted_runs(std::move(values),
                                                        std::move(counts));
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
  DailyPresence result;
  result.fleet_size = fleet_size;
  result.ever_touched_cells = cell_days_.size();

  const auto n_days = static_cast<std::size_t>(days_);
  std::vector<std::uint32_t> cells_per_day(n_days, 0);
  for (const auto& [cell, bits] : cell_days_) {
    for (std::size_t d = 0; d < n_days; ++d) {
      if (bits.test(static_cast<std::int64_t>(d))) ++cells_per_day[d];
    }
  }

  result.cars_fraction.resize(n_days, 0.0);
  result.cells_fraction.resize(n_days, 0.0);
  for (std::size_t d = 0; d < n_days; ++d) {
    result.cars_fraction[d] =
        fleet_size > 0
            ? static_cast<double>(cars_per_day_[d]) / fleet_size
            : 0.0;
    result.cells_fraction[d] =
        result.ever_touched_cells > 0
            ? static_cast<double>(cells_per_day[d]) /
                  static_cast<double>(result.ever_touched_cells)
            : 0.0;
  }
  summarize_presence(result);
  return result;
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

BusyTimeAccumulator::BusyTimeAccumulator(const CellLoad* load,
                                         double threshold)
    : load_(load), threshold_(threshold) {}

void BusyTimeAccumulator::add_car(CarId car,
                                  std::span<const cdr::Connection> records) {
  time::Seconds busy = 0;
  time::Seconds total = 0;
  for (const cdr::Connection& c : records) {
    time::Seconds t = c.start;
    const time::Seconds end = c.end();
    while (t < end) {
      const time::Seconds next_bin =
          (t / time::kSecondsPerBin15 + 1) * time::kSecondsPerBin15;
      const time::Seconds slice_end = std::min(next_bin, end);
      const time::Seconds slice = slice_end - t;
      total += slice;
      if (load_->busy(c.cell, time::bin15_of_week(t), threshold_)) {
        busy += slice;
      }
      t = slice_end;
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
  const auto sessions = cdr::aggregate_sessions(records, journey_gap_);
  for (const cdr::Session& s : sessions) {
    ++session_count_;
    int handovers = 0;
    scratch_stations_.clear();
    for (std::size_t i = 0; i < s.legs.size(); ++i) {
      const net::CellInfo& info = cells_->info(s.legs[i].cell);
      scratch_stations_.push_back(info.station.value);
      if (i == 0) continue;
      const net::CellInfo& prev = cells_->info(s.legs[i - 1].cell);
      const net::HandoverType type = net::classify_handover(prev, info);
      ++counts_[static_cast<std::size_t>(type)];
      if (type != net::HandoverType::kNone) ++handovers;
    }
    bump_histogram(per_session_hist_, static_cast<std::size_t>(handovers));

    std::sort(scratch_stations_.begin(), scratch_stations_.end());
    scratch_stations_.erase(
        std::unique(scratch_stations_.begin(), scratch_stations_.end()),
        scratch_stations_.end());
    bump_histogram(stations_hist_, scratch_stations_.size());
  }
}

void HandoverAccumulator::merge(HandoverAccumulator&& other) {
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    counts_[t] += other.counts_[t];
  }
  if (other.per_session_hist_.size() > per_session_hist_.size()) {
    per_session_hist_.resize(other.per_session_hist_.size(), 0);
  }
  for (std::size_t v = 0; v < other.per_session_hist_.size(); ++v) {
    per_session_hist_[v] += other.per_session_hist_[v];
  }
  if (other.stations_hist_.size() > stations_hist_.size()) {
    stations_hist_.resize(other.stations_hist_.size(), 0);
  }
  for (std::size_t v = 0; v < other.stations_hist_.size(); ++v) {
    stations_hist_[v] += other.stations_hist_[v];
  }
  session_count_ += other.session_count_;
}

HandoverStats HandoverAccumulator::finalize() && {
  HandoverStats result;
  result.counts = counts_;
  result.session_count = session_count_;
  result.per_session = distribution_from_histogram(per_session_hist_);
  result.stations_per_session = distribution_from_histogram(stations_hist_);
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
    const CarrierId carrier = cells_->info(c.cell).carrier;
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

void CellSessionsAccumulator::add_duration(std::int32_t duration_s) {
  pending_.push_back(duration_s);
  truncated_sum_ += cdr::truncated_duration(duration_s, cap_);
  ++count_;
  if (pending_.size() >= kPassFlushRecords) flush_pending();
}

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
  for (const cdr::Connection& c : records) add_duration(c.duration_s);
}

void CellSessionsAccumulator::merge(CellSessionsAccumulator&& other) {
  other.flush_pending();
  flush_pending();
  merge_runs(run_values_, run_counts_, other.run_values_, other.run_counts_);
  count_ += other.count_;
  truncated_sum_ += other.truncated_sum_;
}

CellSessionStats CellSessionsAccumulator::finalize() && {
  flush_pending();
  CellSessionStats result;
  result.cap = cap_;
  const std::uint64_t n = count_;
  std::vector<double> values(run_values_.begin(), run_values_.end());
  result.durations = stats::EmpiricalDistribution::from_sorted_runs(
      std::move(values), std::move(run_counts_));
  result.median = result.durations.median();
  result.mean_full = result.durations.mean();
  result.mean_truncated =
      n > 0 ? static_cast<double>(truncated_sum_) / static_cast<double>(n)
            : 0.0;
  result.cdf_at_cap = result.durations.cdf(cap_);
  return result;
}

}  // namespace ccms::core
