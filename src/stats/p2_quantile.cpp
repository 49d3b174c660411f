#include "stats/p2_quantile.h"

#include <algorithm>
#include <cmath>

namespace ccms::stats {

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 0.001, 0.999)) {
  const Schedule s = schedule(q_, 0);
  desired_ = s.desired;
  increments_ = s.increments;
}

P2Quantile::Schedule P2Quantile::schedule(double q, std::int64_t count) {
  Schedule s;
  s.desired = {1, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5};
  s.increments = {0, q / 2, q, (1 + q) / 2, 1};
  if (count > 5) {
    const auto steps = static_cast<double>(count - 5);
    for (std::size_t i = 0; i < 5; ++i) s.desired[i] += steps * s.increments[i];
  }
  return s;
}

void P2Quantile::insert_sorted(double x) {
  // First five observations: keep them sorted.
  auto i = static_cast<std::size_t>(count_);
  heights_[i] = x;
  for (; i > 0 && heights_[i - 1] > heights_[i]; --i) {
    std::swap(heights_[i - 1], heights_[i]);
  }
}

double P2Quantile::parabolic(int i, int d) const {
  const double qi = heights_[static_cast<std::size_t>(i)];
  const double qp = heights_[static_cast<std::size_t>(i + 1)];
  const double qm = heights_[static_cast<std::size_t>(i - 1)];
  const double ni = positions_[static_cast<std::size_t>(i)];
  const double np = positions_[static_cast<std::size_t>(i + 1)];
  const double nm = positions_[static_cast<std::size_t>(i - 1)];
  return qi + d / (np - nm) *
                  ((ni - nm + d) * (qp - qi) / (np - ni) +
                   (np - ni - d) * (qi - qm) / (ni - nm));
}

double P2Quantile::linear(int i, int d) const {
  const auto ii = static_cast<std::size_t>(i);
  const auto id = static_cast<std::size_t>(i + d);
  return heights_[ii] + d * (heights_[id] - heights_[ii]) /
                            (positions_[id] - positions_[ii]);
}

void P2Quantile::add(double x) {
  if (!std::isfinite(x)) {
    // A NaN would otherwise wedge the cell search into the top branch and
    // overwrite the max marker, corrupting every later estimate.
    ++ignored_;
    return;
  }
  if (count_ < 5) {
    insert_sorted(x);
    ++count_;
    if (count_ == 5) {
      positions_ = {1, 2, 3, 4, 5};
    }
    return;
  }

  // Find the cell k containing x and adjust extremes.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x < heights_[1]) {
    k = 0;
  } else if (x < heights_[2]) {
    k = 1;
  } else if (x < heights_[3]) {
    k = 2;
  } else if (x <= heights_[4]) {
    k = 3;
  } else {
    heights_[4] = x;
    k = 3;
  }

  for (int i = k + 1; i < 5; ++i) {
    positions_[static_cast<std::size_t>(i)] += 1;
  }
  for (int i = 0; i < 5; ++i) {
    desired_[static_cast<std::size_t>(i)] +=
        increments_[static_cast<std::size_t>(i)];
  }

  // Adjust interior markers.
  for (int i = 1; i <= 3; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double delta = desired_[ii] - positions_[ii];
    const bool can_up = positions_[ii + 1] - positions_[ii] > 1;
    const bool can_down = positions_[ii - 1] - positions_[ii] < -1;
    if ((delta >= 1 && can_up) || (delta <= -1 && can_down)) {
      const int d = delta >= 1 ? 1 : -1;
      double candidate = parabolic(i, d);
      if (heights_[ii - 1] < candidate && candidate < heights_[ii + 1]) {
        heights_[ii] = candidate;
      } else {
        heights_[ii] = linear(i, d);
      }
      positions_[ii] += d;
    }
  }
  ++count_;
}

double P2Quantile::value() const {
  if (count_ == 0) return 0;
  if (count_ < 5) {
    // Exact small-sample quantile: type-7 linear interpolation between
    // order statistics of the sorted prefix, matching
    // EmpiricalDistribution::quantile so batch and streaming paths agree
    // on tiny cells.
    const auto n = static_cast<std::size_t>(count_);
    const double h = q_ * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = std::min(n - 1, lo + 1);
    return heights_[lo] + (h - std::floor(h)) * (heights_[hi] - heights_[lo]);
  }
  return heights_[2];
}

}  // namespace ccms::stats
