// Fixed-width histograms (Fig 6: number of days each car was on the network).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ccms::stats {

/// Fixed-width histogram over [lo, hi). Values outside the range clamp into
/// the first/last bin (the paper's Fig 6 axis covers the full 0..90 range, so
/// clamping only guards against floating-point edge cases).
class Histogram {
 public:
  /// Creates `bins` equal-width bins spanning [lo, hi). Requires bins >= 1
  /// and hi > lo; otherwise a single degenerate bin is used.
  Histogram(double lo, double hi, int bins);

  void add(double x, double weight = 1.0);

  [[nodiscard]] int bin_count() const { return static_cast<int>(counts_.size()); }
  [[nodiscard]] double count(int bin) const;
  [[nodiscard]] double total() const { return total_; }

  /// Inclusive-exclusive range [lower(bin), upper(bin)) of a bin.
  [[nodiscard]] double lower(int bin) const;
  [[nodiscard]] double upper(int bin) const;

  /// Bin index a value falls into (after clamping).
  [[nodiscard]] int bin_of(double x) const;

  /// All counts, for plotting.
  [[nodiscard]] const std::vector<double>& counts() const { return counts_; }

  /// Index of the first local minimum followed by a sustained rise — the
  /// "knee" heuristic the paper eyeballs in Fig 6 to justify the 10-day
  /// rare/common boundary. `smooth_window` applies a centred moving average
  /// first. Returns -1 if the histogram is monotone.
  [[nodiscard]] int knee_bin(int smooth_window = 5) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0;
};

}  // namespace ccms::stats
