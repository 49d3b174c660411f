// Exact quantiles and empirical CDFs.
//
// The paper reports specific percentiles throughout: median per-cell session
// 105 s and "73rd percentile at 600 s" (Fig 9), handover p50/p70/p90 (§4.5),
// connected-time p99.5 (Fig 3), and deciles of busy-cell time (Fig 7). We
// compute exact order statistics over the full sample (no sketching).
//
// Storage is run-length encoded: the sorted unique values plus a count per
// value. Heavily duplicated integer-valued samples (per-cell session
// durations, handovers per session) compress from one entry per record to
// one entry per distinct value, which is what lets a StudyReport over the
// paper's 1.1B connections fit in memory. Every statistic is computed to be
// bitwise identical to the old expanded-vector implementation: quantile and
// cdf index the virtual expanded array through the cumulative counts, and
// mean() performs the same ascending repeated additions std::accumulate did
// over the sorted expansion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccms::stats {

/// Empirical distribution over a sample. Construction sorts a copy and
/// run-length encodes it.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> sample);

  /// Builds directly from run-length encoded form: `values` strictly
  /// ascending, `counts[i]` > 0 occurrences of `values[i]`. This is the
  /// constructor the out-of-core accumulators use — equivalent to expanding
  /// the runs and using the sample constructor, without the expansion.
  [[nodiscard]] static EmpiricalDistribution from_sorted_runs(
      std::vector<double> values, std::vector<std::uint64_t> counts);

  /// Builds from a dense count histogram, `hist[v]` occurrences of the
  /// integer value v; zero bins are skipped. Equivalent to expanding the
  /// histogram and using the sample constructor.
  [[nodiscard]] static EmpiricalDistribution from_histogram(
      const std::vector<std::uint64_t>& hist);

  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(total_);
  }

  /// Quantile for q in [0,1], linear interpolation between order statistics
  /// (type-7, the R/NumPy default). Returns 0 on an empty sample.
  [[nodiscard]] double quantile(double q) const;

  /// Convenience: quantile(0.5).
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Fraction of the sample <= x (empirical CDF).
  [[nodiscard]] double cdf(double x) const;

  /// Mean of the sample.
  [[nodiscard]] double mean() const;

  /// The ten deciles q=0.1..1.0 (Fig 7 is a decile plot).
  [[nodiscard]] std::vector<double> deciles() const;

  /// Sample the CDF at `points` evenly spaced x positions across
  /// [min, max] — the form the figure benches print.
  struct CdfPoint {
    double x = 0;
    double p = 0;
  };
  [[nodiscard]] std::vector<CdfPoint> cdf_curve(int points = 50) const;

  /// The sample expanded in ascending order. Materializes size() doubles —
  /// fine for tests and report comparison, not for billion-record samples;
  /// sweeps at scale should iterate values()/counts() instead.
  [[nodiscard]] std::vector<double> sorted() const;

  /// Run-length encoded view: sorted unique values and their counts.
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  friend bool operator==(const EmpiricalDistribution&,
                         const EmpiricalDistribution&) = default;

 private:
  /// Value of virtual sorted()[index], via the cumulative counts.
  [[nodiscard]] double at(std::uint64_t index) const;

  std::vector<double> values_;          ///< sorted, unique
  std::vector<std::uint64_t> counts_;   ///< per-value multiplicities
  std::vector<std::uint64_t> cum_;      ///< inclusive prefix sums of counts_
  std::uint64_t total_ = 0;
};

/// A dense count histogram of non-negative integers: counts()[v] is the
/// multiplicity of v, grown to the largest value added. Merging adds
/// elementwise, so every merge order gives the same counts, and
/// distribution() is EmpiricalDistribution::from_histogram over them. The
/// batch passes (Fig 9 durations, §4.5 per-journey counts) and the stream
/// engine's exact duration tally all count through it.
class CountHistogram {
 public:
  CountHistogram() = default;
  explicit CountHistogram(std::vector<std::uint64_t> counts)
      : counts_(std::move(counts)) {}

  void add(std::size_t value) {
    if (value >= counts_.size()) counts_.resize(value + 1, 0);
    ++counts_[value];
  }

  void merge(const CountHistogram& other);

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  [[nodiscard]] EmpiricalDistribution distribution() const {
    return EmpiricalDistribution::from_histogram(counts_);
  }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace ccms::stats
