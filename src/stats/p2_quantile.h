// P² streaming quantile estimation (Jain & Chlamtac, 1985).
//
// The exact quantiles in stats/quantile.h sort the full sample — fine for
// the scaled-down synthetic studies, but the paper's real input is 1.1
// *billion* records. The P² algorithm tracks a single quantile with five
// markers and O(1) memory per observation, letting the Fig 3/9 percentile
// analyses stream over arbitrarily large CDR exports. perf_pipeline
// benchmarks it against the exact path.
#pragma once

#include <array>
#include <cstdint>

namespace ccms::stats {

/// Streaming estimator of one quantile q in (0, 1).
///
/// Hardened for the streaming path (ccms::stream feeds it unbounded dirty
/// telemetry): non-finite observations are skipped and counted instead of
/// poisoning the markers, and with fewer than 5 observations the estimate is
/// the exact type-7 interpolated quantile of the prefix — the same
/// convention as stats::EmpiricalDistribution — rather than a coarse
/// nearest-rank pick. Duplicate-heavy streams (RRC-timeout atoms dominate
/// real CDR durations) keep the estimate pinned to the majority atom; see
/// stats_p2_quantile_test for the guarantees.
class P2Quantile {
 public:
  /// q is clamped to [0.001, 0.999].
  explicit P2Quantile(double q);

  /// Adds one observation. Non-finite values are ignored (and counted via
  /// ignored()): one corrupt duration must not poison a 90-day estimate.
  void add(double x);

  /// Current estimate. Exact (type-7, matching EmpiricalDistribution) while
  /// fewer than 5 observations have been seen; 0 if none.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::int64_t count() const { return count_; }

  /// Observations dropped because they were NaN/inf.
  [[nodiscard]] std::int64_t ignored() const { return ignored_; }

  [[nodiscard]] double q() const { return q_; }

  /// Full durable state: with < 5 observations `heights` doubles as the
  /// sorted prefix buffer, so everything must round-trip for the estimate to
  /// stay bit-exact across a checkpoint/restore.
  struct State {
    double q = 0.5;
    std::int64_t count = 0;
    std::int64_t ignored = 0;
    std::array<double, 5> heights{};
    std::array<double, 5> positions{};
    std::array<double, 5> desired{};
    std::array<double, 5> increments{};
  };
  /// The desired marker positions and their per-observation increments of
  /// an estimator of quantile `q` after `count` observations, in closed
  /// form: the initial positions plus max(0, count - 5) increments. add()
  /// sums the increments one observation at a time, so its arrays equal
  /// these bitwise exactly when that running sum is exact, as it is for
  /// q = 0.5, whose terms are all multiples of 1/4. The checkpoint codec
  /// stores the arrays only where they differ.
  struct Schedule {
    std::array<double, 5> desired{};
    std::array<double, 5> increments{};
  };
  [[nodiscard]] static Schedule schedule(double q, std::int64_t count);

  [[nodiscard]] State state() const {
    return {q_, count_, ignored_, heights_, positions_, desired_, increments_};
  }
  void restore(const State& s) {
    q_ = s.q;
    count_ = s.count;
    ignored_ = s.ignored;
    heights_ = s.heights;
    positions_ = s.positions;
    desired_ = s.desired;
    increments_ = s.increments;
  }

 private:
  void insert_sorted(double x);
  [[nodiscard]] double parabolic(int i, int d) const;
  [[nodiscard]] double linear(int i, int d) const;

  double q_;
  std::int64_t count_ = 0;
  std::int64_t ignored_ = 0;
  // Marker heights, positions (1-based as in the paper's formulation) and
  // desired positions.
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

}  // namespace ccms::stats
