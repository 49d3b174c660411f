#include "core/usage_matrix.h"

#include <algorithm>
#include <unordered_set>

#include "util/time.h"

namespace ccms::core {

double Matrix24x7::max() const {
  return *std::max_element(values.begin(), values.end());
}

double Matrix24x7::sum() const {
  double s = 0;
  for (const double v : values) s += v;
  return s;
}

double Matrix24x7::fraction_in(const Matrix24x7& mask) const {
  double inside = 0;
  double total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += values[i];
    if (mask.values[i] != 0) inside += values[i];
  }
  return total > 0 ? inside / total : 0.0;
}

namespace {

/// Applies `f(hour_of_week)` for every hour-of-week box the interval
/// [start, end) overlaps, in the car's local time.
template <typename F>
void for_each_hour_box(time::Seconds start, time::Seconds end,
                       int tz_offset_hours, F&& f) {
  const time::Seconds shift =
      static_cast<time::Seconds>(tz_offset_hours) * time::kSecondsPerHour;
  const time::Seconds s = start + shift;
  const time::Seconds e = end + shift;
  if (e <= s) return;
  // Iterate hour boundaries; a connection rarely spans more than a few.
  time::Seconds t = s;
  while (t < e) {
    f(t);
    const time::Seconds next_hour =
        (t / time::kSecondsPerHour + 1) * time::kSecondsPerHour;
    t = next_hour;
  }
}

}  // namespace

Matrix24x7 usage_matrix(std::span<const cdr::Connection> connections,
                        int tz_offset_hours) {
  Matrix24x7 m;
  for (const cdr::Connection& c : connections) {
    add_connection(m, c, tz_offset_hours);
  }
  return m;
}

void add_connection(Matrix24x7& m, const cdr::Connection& c,
                    int tz_offset_hours) {
  const time::Seconds shift =
      static_cast<time::Seconds>(tz_offset_hours) * time::kSecondsPerHour;
  const time::Seconds s = c.start + shift;
  const time::Seconds e = c.end() + shift;
  if (s < 0) {
    // for_each_hour_box's boundary step truncates toward zero; keep its
    // boxes for intervals that start before the epoch.
    for_each_hour_box(c.start, c.end(), tz_offset_hours, [&](time::Seconds t) {
      m.at(time::hour_of_day(t), static_cast<int>(time::weekday(t))) += 1.0;
    });
    return;
  }
  if (e <= s) return;
  // The same boxes as for_each_hour_box: the hour-of-week of the start,
  // then one box per hour boundary inside (s, e), stepped without a
  // division per box.
  time::Seconds boxes = (e - 1) / time::kSecondsPerHour -
                        s / time::kSecondsPerHour + 1;
  int hour = time::hour_of_day(s);
  int dow = static_cast<int>(time::weekday(s));
  for (; boxes > 0; --boxes) {
    m.at(hour, dow) += 1.0;
    if (++hour == 24) {
      hour = 0;
      if (++dow == 7) dow = 0;
    }
  }
}

Matrix24x7 commute_peak_mask() {
  Matrix24x7 m;
  for (int day = 0; day < 5; ++day) {
    for (const int hour : {7, 8, 16, 17}) m.at(hour, day) = 1.0;
  }
  return m;
}

Matrix24x7 network_peak_mask() {
  Matrix24x7 m;
  for (int day = 0; day < 7; ++day) {
    for (int hour = 14; hour < 24; ++hour) m.at(hour, day) = 1.0;
  }
  return m;
}

Matrix24x7 weekend_mask() {
  Matrix24x7 m;
  for (const int day : {5, 6}) {
    for (int hour = 8; hour < 24; ++hour) m.at(hour, day) = 1.0;
  }
  return m;
}

double regularity_score(std::span<const cdr::Connection> connections,
                        int study_days, int tz_offset_hours) {
  if (connections.empty() || study_days <= 0) return 0.0;
  const int weeks = std::max(1, study_days / 7);

  // Distinct (week, hour-of-week) boxes the car is active in.
  std::unordered_set<std::int64_t> active;
  for (const cdr::Connection& c : connections) {
    for_each_hour_box(c.start, c.end(), tz_offset_hours, [&](time::Seconds t) {
      const std::int64_t week = time::day_index(t) / 7;
      if (week < 0 || week >= weeks) return;  // partial trailing week
      const std::int64_t how = time::hour_of_week(t);
      active.insert(week * time::kHoursPerWeek + how);
    });
  }
  if (active.empty()) return 0.0;

  // Per hour-of-week box: in how many weeks is it active?
  std::array<int, time::kHoursPerWeek> weeks_active{};
  for (const std::int64_t key : active) {
    ++weeks_active[static_cast<std::size_t>(key % time::kHoursPerWeek)];
  }
  double sum = 0;
  int used = 0;
  for (const int w : weeks_active) {
    if (w > 0) {
      sum += static_cast<double>(w) / weeks;
      ++used;
    }
  }
  return used > 0 ? sum / used : 0.0;
}

}  // namespace ccms::core
