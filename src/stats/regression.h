// Ordinary least squares over (x, y) pairs.
//
// Fig 2 overlays linear trend lines on the daily car/cell presence series and
// reports their equations and R^2 (e.g. "y = 0.0003x + 0.6448, R^2 = 0.0333").
// This is that fit.
#pragma once

#include <span>

namespace ccms::stats {

/// Result of a simple linear regression y = slope*x + intercept.
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r_squared = 0;  ///< coefficient of determination; 0 if undefined
  long long n = 0;

  /// Predicted value at x.
  [[nodiscard]] double at(double x) const { return slope * x + intercept; }

  friend bool operator==(const LinearFit&, const LinearFit&) = default;
};

/// OLS over paired spans (must be the same length; extra elements of the
/// longer span are ignored). Returns a zero fit for fewer than 2 points or
/// zero x-variance.
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

/// OLS where x is the index 0..y.size()-1 (the Fig 2 day axis).
[[nodiscard]] LinearFit linear_fit_indexed(std::span<const double> y);

}  // namespace ccms::stats
