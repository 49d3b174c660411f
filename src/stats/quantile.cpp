#include "stats/quantile.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ccms::stats {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  values_.reserve(64);
  counts_.reserve(64);
  for (std::size_t i = 0; i < sample.size();) {
    std::size_t j = i + 1;
    while (j < sample.size() && sample[j] == sample[i]) ++j;
    values_.push_back(sample[i]);
    counts_.push_back(j - i);
    i = j;
  }
  cum_.resize(counts_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    cum_[i] = running;
  }
  total_ = running;
}

EmpiricalDistribution EmpiricalDistribution::from_sorted_runs(
    std::vector<double> values, std::vector<std::uint64_t> counts) {
  assert(values.size() == counts.size());
  EmpiricalDistribution d;
  d.values_ = std::move(values);
  d.counts_ = std::move(counts);
  d.cum_.resize(d.counts_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < d.counts_.size(); ++i) {
    assert(d.counts_[i] > 0);
    assert(i == 0 || d.values_[i - 1] < d.values_[i]);
    running += d.counts_[i];
    d.cum_[i] = running;
  }
  d.total_ = running;
  return d;
}

EmpiricalDistribution EmpiricalDistribution::from_histogram(
    const std::vector<std::uint64_t>& hist) {
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
  for (std::size_t v = 0; v < hist.size(); ++v) {
    if (hist[v] == 0) continue;
    values.push_back(static_cast<double>(v));
    counts.push_back(hist[v]);
  }
  return from_sorted_runs(std::move(values), std::move(counts));
}

void CountHistogram::merge(const CountHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
}

double EmpiricalDistribution::at(std::uint64_t index) const {
  // First run whose inclusive prefix sum exceeds `index`.
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), index);
  return values_[static_cast<std::size_t>(it - cum_.begin())];
}

double EmpiricalDistribution::quantile(double q) const {
  if (total_ == 0) return 0;
  if (q <= 0) return values_.front();
  if (q >= 1) return values_.back();
  const double h = q * static_cast<double>(total_ - 1);
  const auto lo = static_cast<std::uint64_t>(h);
  const double frac = h - static_cast<double>(lo);
  if (lo + 1 >= total_) return values_.back();
  const double a = at(lo);
  const double b = at(lo + 1);
  return a + frac * (b - a);
}

double EmpiricalDistribution::cdf(double x) const {
  if (total_ == 0) return 0;
  // Count of sample values <= x: cumulative count through the last run
  // whose value is <= x.
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0;
  const auto run = static_cast<std::size_t>(it - values_.begin()) - 1;
  return static_cast<double>(cum_[run]) / static_cast<double>(total_);
}

double EmpiricalDistribution::mean() const {
  if (total_ == 0) return 0;
  // Repeated ascending additions, exactly the sequence std::accumulate
  // performed over the sorted expansion — bitwise, not just numerically,
  // identical to the pre-RLE implementation.
  double sum = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    for (std::uint64_t k = 0; k < counts_[i]; ++k) sum += values_[i];
  }
  return sum / static_cast<double>(total_);
}

std::vector<double> EmpiricalDistribution::deciles() const {
  std::vector<double> d;
  d.reserve(10);
  for (int i = 1; i <= 10; ++i) d.push_back(quantile(i / 10.0));
  return d;
}

std::vector<EmpiricalDistribution::CdfPoint>
EmpiricalDistribution::cdf_curve(int points) const {
  std::vector<CdfPoint> curve;
  if (total_ == 0 || points < 2) return curve;
  const double lo = values_.front();
  const double hi = values_.back();
  curve.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * i / (points - 1);
    curve.push_back({x, cdf(x)});
  }
  return curve;
}

std::vector<double> EmpiricalDistribution::sorted() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(total_));
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out.insert(out.end(), static_cast<std::size_t>(counts_[i]), values_[i]);
  }
  return out;
}

}  // namespace ccms::stats
