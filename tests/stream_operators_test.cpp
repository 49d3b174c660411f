// Differential test of the shard's per-cell concurrency bins against a
// std::set reference: distinct cars per 15-minute bin and per (cell, bin),
// folded and provisional, over feeds built to stress the bin lists —
// repeated (car, cell) pairs in one bin, same-start ties, 3600 s artifacts
// and multi-day records spanning many bins, out-of-order arrivals inside
// the lateness window, cell ids near UINT32_MAX and one bin with more than
// core::kPassFlushRecords observations. Writing the shard's checkpoint
// section and loading it into a fresh shard at a random cut must resume to
// the same snapshot and the same section.
#include "stream/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/day_bits.h"
#include "core/passes.h"
#include "stream/checkpoint.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using test::conn;

constexpr time::Seconds kLateness = 1800;

StreamConfig shard_config() {
  StreamConfig config;
  config.shards = 1;
  config.allowed_lateness = kLateness;
  config.fleet_size = 64;
  config.study_days = 0;
  config.recent_bins = 0;  // keep every folded bin, so all are compared
  return config;
}

/// One delivery step of a feed: a record to offer, then the watermark the
/// shard advances to.
struct Step {
  cdr::Connection record;
  time::Seconds watermark = 0;
};

/// A feed in arrival order. Starts drift forward; each record may arrive
/// late by up to the lateness window but never behind the watermark, as
/// the frontend guarantees.
std::vector<Step> make_feed(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Step> feed;
  time::Seconds max_start = 0;
  time::Seconds watermark = std::numeric_limits<time::Seconds>::min();
  time::Seconds clock = 10 * time::kSecondsPerBin15;
  time::Seconds last_start = clock;
  const auto push = [&](std::uint32_t car, std::uint32_t cell,
                        time::Seconds start, std::int32_t duration) {
    start = std::max(start, watermark);
    max_start = std::max(max_start, start);
    watermark = std::max(watermark, max_start - kLateness);
    feed.push_back({conn(car, cell, start, duration), watermark});
    last_start = start;
  };

  for (int i = 0; i < 3000; ++i) {
    clock += rng.uniform_int(0, 45);
    const double dice = rng.uniform();
    auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
    auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 30));
    if (rng.uniform() < 0.1) {
      // Ids the shard sees before the unknown-cell screen.
      cell = std::numeric_limits<std::uint32_t>::max() -
             static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    }
    auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 1200));
    time::Seconds start = clock;
    if (dice < 0.05) {
      duration = 3600;  // hour artifact: five bins
    } else if (dice < 0.07) {
      duration = static_cast<std::int32_t>(rng.uniform_int(86401, 200000));
    } else if (dice < 0.20) {
      start = last_start;  // same-start tie
    } else if (dice < 0.35) {
      start = clock - rng.uniform_int(1, kLateness);  // late, still in window
    }
    push(car, cell, start, duration);
    if (rng.uniform() < 0.15) {
      push(car, cell, start + rng.uniform_int(0, 60), duration);  // repeat
    }
  }

  // One bin with more than kPassFlushRecords observations, so the shard
  // compacts its lists mid-bin (twice) before the bin folds.
  clock = (clock / time::kSecondsPerBin15 + 2) * time::kSecondsPerBin15;
  const std::size_t burst = 2 * core::kPassFlushRecords + 5000;
  for (std::size_t i = 0; i < burst; ++i) {
    const auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 2999));
    push(car, cell, clock + rng.uniform_int(0, 600),
         static_cast<std::int32_t>(rng.uniform_int(1, 200)));
  }

  for (int i = 0; i < 300; ++i) {
    clock += rng.uniform_int(0, 120);
    push(static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
         static_cast<std::uint32_t>(rng.uniform_int(0, 30)), clock,
         static_cast<std::int32_t>(rng.uniform_int(1, 3600)));
  }
  return feed;
}

/// The same bins counted with std::set over the integrated records.
class Reference {
 public:
  void offer(const cdr::Connection& c) { pending_.emplace(c.start, c); }

  void advance(time::Seconds watermark) {
    watermark_ = std::max(watermark_, watermark);
    while (!pending_.empty() && pending_.begin()->first < watermark) {
      const cdr::Connection& c = pending_.begin()->second;
      const core::BinRange range = core::bin15_range(c.start, c.end());
      for (std::int64_t b = range.first; b <= range.last; ++b) {
        Bin& bin = bins_[b];
        bin.cars.insert(c.car.value);
        bin.per_cell[c.cell.value].insert(c.car.value);
      }
      pending_.erase(pending_.begin());
    }
  }

  void close() {
    advance(std::numeric_limits<time::Seconds>::max());
    closed_ = true;
  }

  /// Every bin with an observation, ascending; open ones provisional.
  [[nodiscard]] std::vector<BinCounts> bins() const {
    std::vector<BinCounts> out;
    for (const auto& [b, bin] : bins_) {
      BinCounts counts;
      counts.bin = b;
      counts.cars = static_cast<std::uint32_t>(bin.cars.size());
      for (const auto& [cell, cars] : bin.per_cell) {
        counts.cells.emplace_back(cell,
                                  static_cast<std::uint32_t>(cars.size()));
      }
      counts.provisional =
          !closed_ && (b + 1) * time::kSecondsPerBin15 > watermark_;
      out.push_back(std::move(counts));
    }
    return out;
  }

 private:
  struct Bin {
    std::set<std::uint32_t> cars;
    std::map<std::uint32_t, std::set<std::uint32_t>> per_cell;
  };
  std::multimap<time::Seconds, cdr::Connection> pending_;
  std::map<std::int64_t, Bin> bins_;
  time::Seconds watermark_ = std::numeric_limits<time::Seconds>::min();
  bool closed_ = false;
};

std::vector<std::uint8_t> image_bytes(ShardState& shard) {
  Checkpoint image = image_skeleton(shard_config(), false);
  image.shards[0] = write_shard(shard);
  return encode(image);
}

void expect_same_snapshot(const ShardSnapshot& a, const ShardSnapshot& b,
                          const std::string& what) {
  EXPECT_EQ(a.bins, b.bins) << what;
  EXPECT_EQ(a.records, b.records) << what;
  EXPECT_EQ(a.cars_per_day, b.cars_per_day) << what;
  EXPECT_EQ(a.sessions_closed, b.sessions_closed) << what;
  EXPECT_EQ(a.sessions_open, b.sessions_open) << what;
  ASSERT_EQ(a.cars.size(), b.cars.size()) << what;
  for (std::size_t i = 0; i < a.cars.size(); ++i) {
    EXPECT_EQ(a.cars[i].car, b.cars[i].car) << what;
    EXPECT_EQ(a.cars[i].full_s, b.cars[i].full_s) << what;
    EXPECT_EQ(a.cars[i].trunc_s, b.cars[i].trunc_s) << what;
  }
  ASSERT_EQ(a.cell_stats.size(), b.cell_stats.size()) << what;
  for (std::size_t i = 0; i < a.cell_stats.size(); ++i) {
    EXPECT_EQ(a.cell_stats[i].cell, b.cell_stats[i].cell) << what;
    EXPECT_EQ(a.cell_stats[i].connections, b.cell_stats[i].connections)
        << what;
  }
}

/// Feeds one seed's feed into a shard, comparing its bins with the
/// reference at random points and after close().
void run_against_reference(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::vector<Step> feed = make_feed(seed);
  ShardState shard(shard_config(), 0);
  Reference reference;
  util::Rng rng(seed ^ 0x5EEDu);
  std::size_t next_check = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    shard.offer(feed[i].record);
    reference.offer(feed[i].record);
    shard.advance(feed[i].watermark);
    reference.advance(feed[i].watermark);
    if (i == next_check) {
      ASSERT_EQ(shard.snapshot().bins, reference.bins())
          << "seed " << seed << " after record " << i;
      next_check += static_cast<std::size_t>(rng.uniform_int(1, 4000));
    }
  }
  shard.close();
  reference.close();
  const std::vector<BinCounts> folded = shard.snapshot().bins;
  ASSERT_EQ(folded, reference.bins()) << "seed " << seed << " after close";

  // The burst bin's folded counts: more keys than one flush, all counted.
  const auto widest = std::max_element(
      folded.begin(), folded.end(), [](const auto& a, const auto& b) {
        return a.cells.size() < b.cells.size();
      });
  ASSERT_NE(widest, folded.end());
  EXPECT_EQ(widest->cars, 64u) << "seed " << seed;
  EXPECT_GT(widest->cells.size(), 2000u) << "seed " << seed;
}

TEST(StreamOperators, BinsMatchASetReference) {
  for (const std::uint64_t seed : {20170901u, 7u, 0xC0FFEEu}) {
    run_against_reference(seed);
  }
}

TEST(StreamOperators, SaveLoadAtARandomCutResumesIdentically) {
  for (const std::uint64_t seed : {20170901u, 11u, 0xBEEFu, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Step> feed = make_feed(seed);
    util::Rng rng(seed ^ 0xC07u);
    // Cuts fall anywhere, the burst bin (compacted or not) included.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(feed.size()) - 1));

    ShardState straight(shard_config(), 0);
    ShardState resumed(shard_config(), 0);
    for (std::size_t i = 0; i < feed.size(); ++i) {
      if (i == cut) {
        load_shard(write_shard(straight), resumed);
        ASSERT_EQ(image_bytes(resumed), image_bytes(straight))
            << "seed " << seed << " cut " << cut;
      }
      straight.offer(feed[i].record);
      straight.advance(feed[i].watermark);
      if (i >= cut) {
        resumed.offer(feed[i].record);
        resumed.advance(feed[i].watermark);
      }
    }
    expect_same_snapshot(resumed.snapshot(), straight.snapshot(),
                         "mid-stream, seed " + std::to_string(seed) +
                             " cut " + std::to_string(cut));
    EXPECT_EQ(image_bytes(resumed), image_bytes(straight))
        << "seed " << seed << " cut " << cut;

    straight.close();
    resumed.close();
    expect_same_snapshot(resumed.snapshot(), straight.snapshot(),
                         "finished, seed " + std::to_string(seed) + " cut " +
                             std::to_string(cut));
    EXPECT_EQ(image_bytes(resumed), image_bytes(straight))
        << "seed " << seed << " cut " << cut;
  }
}

}  // namespace
}  // namespace ccms::stream
