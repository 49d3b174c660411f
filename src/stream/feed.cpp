#include "stream/feed.h"

#include <algorithm>
#include <limits>

namespace ccms::stream {

namespace {

/// Arrival order: ascending start, ties broken by (car, cell, duration).
struct ByArrival {
  bool operator()(const cdr::Connection& a, const cdr::Connection& b) const {
    if (a.start != b.start) return a.start < b.start;
    if (a.car != b.car) return a.car < b.car;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.duration_s < b.duration_s;
  }
};

}  // namespace

std::vector<cdr::Connection> arrival_order(const cdr::Dataset& dataset) {
  std::vector<cdr::Connection> arrivals(dataset.all().begin(),
                                        dataset.all().end());
  std::sort(arrivals.begin(), arrivals.end(), ByArrival{});
  return arrivals;
}

void replay(const cdr::Dataset& dataset, ShardedEngine& engine) {
  const std::vector<cdr::Connection> arrivals = arrival_order(dataset);
  engine.push(std::span<const cdr::Connection>(arrivals));
  engine.finish();
}

StreamConfig config_for(const cdr::Dataset& dataset, int shards) {
  StreamConfig config;
  config.shards = shards;
  config.fleet_size = dataset.fleet_size();
  config.study_days = dataset.study_days();
  return config;
}

DatasetFeed::DatasetFeed(const cdr::Dataset& dataset)
    : arrivals_(arrival_order(dataset)) {}

std::size_t DatasetFeed::advance_to(time::Seconds now, ShardedEngine& engine) {
  const std::size_t begin = next_;
  while (next_ < arrivals_.size() && arrivals_[next_].start <= now) {
    engine.push(arrivals_[next_]);
    ++next_;
  }
  return next_ - begin;
}

time::Seconds DatasetFeed::next_start() const {
  return next_ < arrivals_.size()
             ? arrivals_[next_].start
             : std::numeric_limits<time::Seconds>::max();
}

}  // namespace ccms::stream
