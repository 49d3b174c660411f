// Streaming descriptive statistics (Welford's online algorithm).
//
// Table 1 reports per-weekday means and standard deviations of daily
// presence fractions; Fig 3/9 report means of duration distributions. The
// accumulator below is the single implementation behind all of them.
#pragma once

#include <cstdint>
#include <limits>

namespace ccms::stats {

/// Online mean/variance/min/max accumulator (Welford).
class Accumulator {
 public:
  /// Add one observation.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Population variance (divide by n). Returns 0 for n < 1.
  [[nodiscard]] double variance_population() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }

  /// Sample variance (divide by n-1). Returns 0 for n < 2.
  [[nodiscard]] double variance_sample() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  /// Sample standard deviation, the flavour Table 1 reports.
  [[nodiscard]] double stddev() const;

  [[nodiscard]] double min() const {
    return n_ > 0 ? min_ : 0.0;
  }
  [[nodiscard]] double max() const {
    return n_ > 0 ? max_ : 0.0;
  }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const Accumulator& other);

  /// Full durable state. min/max are serialized raw (±inf while empty) so a
  /// checkpoint/restore round trip is bit-exact mid-stream.
  struct State {
    std::int64_t n = 0;
    double mean = 0;
    double m2 = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] State state() const {
    return {n_, mean_, m2_, sum_, min_, max_};
  }
  void restore(const State& s) {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
    sum_ = s.sum;
    min_ = s.min;
    max_ = s.max;
  }

  friend bool operator==(const Accumulator&, const Accumulator&) = default;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ccms::stats
