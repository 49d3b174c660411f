// Differential test of a shard's snapshot against a reference built from
// std::map and std::set: distinct cars per 15-minute bin and per (cell,
// bin), folded and provisional; per-cell day sets, connection counts and
// P2 medians (bit for bit against a std::map of stats::P2Quantile); the
// 24x7 usage matrix; cars per day and each car's days. The feeds stress
// the per-cell state and the bin window: repeated (car, cell) pairs in one
// bin, one car in several cells within one bin, same-start ties, 3600 s
// artifacts, records as long as clean.max_plausible_duration_s and longer
// multi-day ones, out-of-order arrivals inside the lateness window, cell
// ids near UINT32_MAX, one bin with more than core::kPassFlushRecords
// observations, and jumps past day 28 and day 64, at study horizons of 0
// (grown) and 28 days. Writing the shard's checkpoint section and loading
// it into a fresh shard must resume to the same snapshot and the same
// section, at one random cut followed to the end and at many cuts.
#include "stream/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/day_bits.h"
#include "core/passes.h"
#include "core/usage_matrix.h"
#include "stats/p2_quantile.h"
#include "stream/checkpoint.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using test::conn;

constexpr time::Seconds kLateness = 1800;

StreamConfig shard_config(int study_days = 0) {
  StreamConfig config;
  config.shards = 1;
  config.allowed_lateness = kLateness;
  config.fleet_size = 64;
  config.study_days = study_days;
  config.recent_bins = 0;  // keep every folded bin, so all are compared
  return config;
}

/// One delivery step of a feed: a record to offer, then the watermark the
/// shard advances to.
struct Step {
  cdr::Connection record;
  time::Seconds watermark = 0;
  bool burst = false;       ///< inside the one many-key bin
  bool multi_cell = false;  ///< the car is open in several cells of a bin
};

/// The longest record make_feed() writes.
constexpr std::int32_t kLongestRecord = 200000;

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
  const std::int32_t max_plausible =
      StreamConfig{}.clean.max_plausible_duration_s;

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
      duration = static_cast<std::int32_t>(
          rng.uniform_int(86401, kLongestRecord));
    } else if (dice < 0.08) {
      duration = max_plausible;  // the longest a screened feed holds
    } else if (dice < 0.10) {
      // One car in several cells within one bin.
      for (int k = 0; k < 3; ++k) {
        push(car, static_cast<std::uint32_t>(rng.uniform_int(0, 30)),
             clock + 20 * k,
             static_cast<std::int32_t>(rng.uniform_int(1, 400)));
        feed.back().multi_cell = true;
      }
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
    feed.back().burst = true;
  }

  // Then jumps: to the end of day 27, with records running past day 28
  // (the horizon of a 28-day study), and past day 64 (a second day word).
  for (const time::Seconds jump :
       {time::Seconds{0}, 28 * time::kSecondsPerDay - 4 * 3600,
        70 * time::kSecondsPerDay}) {
    clock = std::max(clock, jump);
    for (int i = 0; i < 300; ++i) {
      clock += rng.uniform_int(0, 120);
      auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 3600));
      if (rng.uniform() < 0.05) duration = max_plausible;
      push(static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
           static_cast<std::uint32_t>(rng.uniform_int(0, 30)), clock,
           duration);
    }
  }
  return feed;
}

/// The shard's snapshot fields computed the plain way over the records it
/// integrated: std::set for the bins, cell and car days, a std::map of
/// stats::P2Quantile for the medians, and hour boxes walked one by one.
class Reference {
 public:
  explicit Reference(int study_days) : study_days_(study_days) {}

  void offer(const cdr::Connection& c) {
    pending_.emplace(std::tuple(c.start, c.car.value, c.cell.value,
                                c.duration_s),
                     c);
  }

  void advance(time::Seconds watermark) {
    watermark_ = std::max(watermark_, watermark);
    while (!pending_.empty() &&
           std::get<0>(pending_.begin()->first) < watermark) {
      integrate(pending_.begin()->second);
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

  /// Compares every field of `snap` but the session counts.
  void expect_matches(const ShardSnapshot& snap,
                      const std::string& what) const {
    EXPECT_EQ(snap.bins, bins()) << what;
    EXPECT_EQ(snap.usage, usage_) << what;

    std::size_t days = study_days_ > 0 ? static_cast<std::size_t>(study_days_)
                                       : 0;
    for (const auto& [car, car_days] : car_days_) {
      if (!car_days.empty()) {
        days = std::max(days, static_cast<std::size_t>(*car_days.rbegin()) + 1);
      }
    }
    std::vector<std::uint32_t> cars_per_day(days, 0);
    for (const auto& [car, car_days] : car_days_) {
      for (const std::int64_t d : car_days) {
        ++cars_per_day[static_cast<std::size_t>(d)];
      }
    }
    EXPECT_EQ(snap.cars_per_day, cars_per_day) << what;
    ASSERT_EQ(snap.cars.size(), car_days_.size()) << what;
    auto car = car_days_.begin();
    for (const auto& totals : snap.cars) {
      EXPECT_EQ(totals.car, car->first) << what;
      EXPECT_EQ(totals.days, static_cast<int>(car->second.size()))
          << what << ", car " << car->first;
      ++car;
    }

    std::map<std::uint32_t, std::set<std::int64_t>> snap_cell_days;
    ASSERT_EQ(snap.day_rows.size(), snap.day_cells.size() + 1) << what;
    ASSERT_EQ(snap.day_rows.back(), snap.day_words.size()) << what;
    for (std::size_t i = 0; i < snap.day_cells.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(snap.day_cells[i - 1], snap.day_cells[i]) << what;
      }
      auto& cell_days = snap_cell_days[snap.day_cells[i]];
      for (std::size_t w = 0; w < snap.day_rows[i + 1] - snap.day_rows[i];
           ++w) {
        for (std::uint64_t bits = snap.day_words[snap.day_rows[i] + w];
             bits != 0; bits &= bits - 1) {
          cell_days.insert(static_cast<std::int64_t>(
              64 * w + static_cast<std::size_t>(std::countr_zero(bits))));
        }
      }
    }
    EXPECT_EQ(snap_cell_days, cell_days_) << what;

    ASSERT_EQ(snap.cell_stats.size(), cells_.size()) << what;
    auto cell = cells_.begin();
    for (const auto& stat : snap.cell_stats) {
      EXPECT_EQ(stat.cell, cell->first) << what;
      EXPECT_EQ(stat.connections, cell->second.connections)
          << what << ", cell " << stat.cell;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(stat.median_s),
                std::bit_cast<std::uint64_t>(cell->second.median.value()))
          << what << ", cell " << stat.cell;
      ++cell;
    }
  }

 private:
  void integrate(const cdr::Connection& c) {
    const std::uint32_t car = c.car.value;
    const std::uint32_t cell = c.cell.value;
    const core::BinRange range = core::bin15_range(c.start, c.end());
    for (std::int64_t b = range.first; b <= range.last; ++b) {
      Bin& bin = bins_[b];
      bin.cars.insert(car);
      bin.per_cell[cell].insert(car);
    }
    const core::DayRange days =
        core::study_day_range(c.start, c.end(), study_days_);
    auto& car_days = car_days_[car];
    auto& cell_days = cell_days_[cell];
    for (std::int64_t d = days.first; d <= days.last; ++d) {
      car_days.insert(d);
      cell_days.insert(d);
    }
    Cell& stats = cells_.try_emplace(cell).first->second;
    ++stats.connections;
    stats.median.add(static_cast<double>(c.duration_s));
    // One count per hour box, stepping from boundary to boundary.
    for (time::Seconds t = c.start; t < c.end();
         t = (t / time::kSecondsPerHour + 1) * time::kSecondsPerHour) {
      usage_.at(time::hour_of_day(t), static_cast<int>(time::weekday(t))) +=
          1.0;
    }
  }

  struct Bin {
    std::set<std::uint32_t> cars;
    std::map<std::uint32_t, std::set<std::uint32_t>> per_cell;
  };
  struct Cell {
    std::uint64_t connections = 0;
    stats::P2Quantile median{0.5};
  };
  int study_days_ = 0;
  std::multimap<std::tuple<time::Seconds, std::uint32_t, std::uint32_t,
                           std::int32_t>,
                cdr::Connection>
      pending_;
  std::map<std::int64_t, Bin> bins_;
  std::map<std::uint32_t, std::set<std::int64_t>> car_days_;
  std::map<std::uint32_t, std::set<std::int64_t>> cell_days_;
  std::map<std::uint32_t, Cell> cells_;
  core::Matrix24x7 usage_;
  time::Seconds watermark_ = std::numeric_limits<time::Seconds>::min();
  bool closed_ = false;
};

std::vector<std::uint8_t> image_bytes(ShardState& shard, int study_days = 0) {
  Checkpoint image = image_skeleton(shard_config(study_days), false);
  image.shards[0] = write_shard(shard);
  return encode(image);
}

void expect_same_snapshot(const ShardSnapshot& a, const ShardSnapshot& b,
                          const std::string& what) {
  EXPECT_EQ(a.bins, b.bins) << what;
  EXPECT_EQ(a.records, b.records) << what;
  EXPECT_EQ(a.cars_per_day, b.cars_per_day) << what;
  EXPECT_EQ(a.day_cells, b.day_cells) << what;
  EXPECT_EQ(a.day_rows, b.day_rows) << what;
  EXPECT_EQ(a.day_words, b.day_words) << what;
  EXPECT_EQ(a.usage, b.usage) << what;
  EXPECT_EQ(a.sessions_closed, b.sessions_closed) << what;
  EXPECT_EQ(a.sessions_open, b.sessions_open) << what;
  EXPECT_EQ(a.reorder_pending, b.reorder_pending) << what;
  ASSERT_EQ(a.cars.size(), b.cars.size()) << what;
  for (std::size_t i = 0; i < a.cars.size(); ++i) {
    EXPECT_EQ(a.cars[i].car, b.cars[i].car) << what;
    EXPECT_EQ(a.cars[i].full_s, b.cars[i].full_s) << what;
    EXPECT_EQ(a.cars[i].trunc_s, b.cars[i].trunc_s) << what;
    EXPECT_EQ(a.cars[i].days, b.cars[i].days) << what;
  }
  ASSERT_EQ(a.cell_stats.size(), b.cell_stats.size()) << what;
  for (std::size_t i = 0; i < a.cell_stats.size(); ++i) {
    EXPECT_EQ(a.cell_stats[i].cell, b.cell_stats[i].cell) << what;
    EXPECT_EQ(a.cell_stats[i].connections, b.cell_stats[i].connections)
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cell_stats[i].median_s),
              std::bit_cast<std::uint64_t>(b.cell_stats[i].median_s))
        << what;
  }
}

/// Feeds one seed's feed into a shard, comparing its snapshot with the
/// reference at random points and after close(). The open bins never span
/// more than the longest record's bins plus two: everything before the
/// record being integrated folds.
void run_against_reference(std::uint64_t seed, int study_days) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", study days " +
               std::to_string(study_days));
  const std::vector<Step> feed = make_feed(seed);
  ShardState shard(shard_config(study_days), 0);
  Reference reference(study_days);
  util::Rng rng(seed ^ 0x5EEDu);
  constexpr std::int64_t kWindowBound =
      (kLongestRecord + time::kSecondsPerBin15 - 1) / time::kSecondsPerBin15 +
      2;
  std::size_t next_check = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    shard.offer(feed[i].record);
    reference.offer(feed[i].record);
    shard.advance(feed[i].watermark);
    reference.advance(feed[i].watermark);
    if (i == next_check) {
      const ShardSnapshot snap = shard.snapshot();
      reference.expect_matches(snap, "after record " + std::to_string(i));
      std::int64_t low = std::numeric_limits<std::int64_t>::max();
      std::int64_t high = std::numeric_limits<std::int64_t>::min();
      for (const BinCounts& bin : snap.bins) {
        if (!bin.provisional) continue;
        low = std::min(low, bin.bin);
        high = std::max(high, bin.bin);
      }
      if (low <= high) {
        EXPECT_LE(high - low + 1, kWindowBound) << "after record " << i;
      }
      if (::testing::Test::HasFailure()) return;
      next_check += static_cast<std::size_t>(rng.uniform_int(1, 4000));
    }
  }
  shard.close();
  reference.close();
  const ShardSnapshot closed = shard.snapshot();
  reference.expect_matches(closed, "after close");
  const std::vector<BinCounts>& folded = closed.bins;

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
    run_against_reference(seed, 0);
  }
}

TEST(StreamOperators, EveryFieldMatchesAReferenceAtATwentyEightDayHorizon) {
  for (const std::uint64_t seed : {20170901u, 31u}) {
    run_against_reference(seed, 28);
  }
}

TEST(StreamOperators, RecordsOutOfStartOrderAndOtherShardsCarsCountExactly) {
  // Outside what a Frontend delivers: records offered behind the watermark
  // (though never behind the oldest open bin), so a car's records reach
  // its bins out of start order, and the cars of another shard. The car
  // marks cannot vouch for those bins, which must count from their keys.
  for (const std::uint64_t seed : {3u, 0xD1CEu}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StreamConfig config = shard_config();
    config.shards = 2;  // shard 0 of 2: the odd cars belong to shard 1
    ShardState shard(config, 0);
    Reference reference(0);
    util::Rng rng(seed);
    time::Seconds clock = 40 * time::kSecondsPerBin15;
    time::Seconds watermark = 0;
    for (int i = 0; i < 6000; ++i) {
      clock += rng.uniform_int(0, 40);
      const time::Seconds open_from =
          watermark / time::kSecondsPerBin15 * time::kSecondsPerBin15;
      const time::Seconds start =
          std::max(open_from, clock - rng.uniform_int(0, 3 * kLateness));
      // Sparse cars, so a late record often reaches bins its car is not
      // in yet.
      const cdr::Connection c =
          conn(static_cast<std::uint32_t>(rng.uniform_int(0, 199)),
               static_cast<std::uint32_t>(rng.uniform_int(0, 12)), start,
               static_cast<std::int32_t>(rng.uniform_int(1, 2400)));
      watermark = std::max(watermark, clock - kLateness);
      shard.offer(c);
      reference.offer(c);
      shard.advance(watermark);
      reference.advance(watermark);
      if (i % 500 == 0) {
        ASSERT_EQ(shard.snapshot().bins, reference.bins()) << "record " << i;
      }
    }
    shard.close();
    reference.close();
    EXPECT_EQ(shard.snapshot().bins, reference.bins());
  }
}

TEST(StreamOperators, OneAdvanceOverDecadesFoldsAsItGoes) {
  // Every record offered first and integrated by one advance: bins fold as
  // the records pass them, so the open bins never span the 40 years of the
  // feed (past ShardState::kMaxOpenBins).
  ShardState shard(shard_config(), 0);
  Reference reference(0);
  util::Rng rng(0xDECADEu);
  constexpr time::Seconds kYear = 365 * time::kSecondsPerDay;
  for (int i = 0; i < 400; ++i) {
    const cdr::Connection c =
        conn(static_cast<std::uint32_t>(rng.uniform_int(0, 9)),
             static_cast<std::uint32_t>(rng.uniform_int(0, 4)),
             i * kYear / 10 + rng.uniform_int(0, 3600),
             static_cast<std::int32_t>(rng.uniform_int(1, 7200)));
    shard.offer(c);
    reference.offer(c);
  }
  shard.close();
  reference.close();
  EXPECT_EQ(shard.snapshot().bins, reference.bins());
}

TEST(StreamOperators, ABinReopenedAfterItFoldedCountsItsCarsAfresh) {
  // Outside what a Frontend delivers: a record behind a folded bin opens
  // that bin again, and the new entry counts the cars observed since, the
  // car of the folded entry included.
  ShardState shard(shard_config(), 0);
  shard.offer(conn(0, 5, 10 * time::kSecondsPerBin15 + 10, 30));
  shard.advance(12 * time::kSecondsPerBin15);
  shard.offer(conn(0, 5, 10 * time::kSecondsPerBin15 + 100, 30));
  shard.offer(conn(2, 6, 10 * time::kSecondsPerBin15 + 200, 30));
  shard.advance(13 * time::kSecondsPerBin15);
  const std::vector<BinCounts> bins = shard.snapshot().bins;
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0], (BinCounts{10, 1, {{5, 1}}, false}));
  EXPECT_EQ(bins[1], (BinCounts{10, 2, {{5, 1}, {6, 1}}, false}));
}

TEST(StreamOperators, BinsFoldedInAnAdvanceThatThrewStayProvisional) {
  // A failing operator leaves the shard as of the record before it, and
  // the advance never reached its watermark: the bins it folded on the
  // way are reported as still open, as they were before the failure.
  StreamConfig config = shard_config();
  config.operator_hook = [](int, const cdr::Connection& c) {
    if (c.car.value == 7) throw std::runtime_error("operator failure");
  };
  ShardState shard(config, 0);
  for (std::int64_t bin = 1; bin <= 3; ++bin) {
    shard.offer(conn(0, 5, bin * time::kSecondsPerBin15 + 10, 30));
  }
  shard.offer(conn(7, 5, 5 * time::kSecondsPerBin15 + 10, 30));
  EXPECT_THROW(shard.advance(10 * time::kSecondsPerBin15), std::runtime_error);
  const ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.records, 3u);
  EXPECT_EQ(snap.reorder_pending, 1u);
  ASSERT_EQ(snap.bins.size(), 3u);
  for (const BinCounts& bin : snap.bins) {
    EXPECT_TRUE(bin.provisional) << "bin " << bin.bin;
    EXPECT_EQ(bin.cars, 1u) << "bin " << bin.bin;
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

TEST(StreamOperators, SaveLoadAtManyCutsResumesIdentically) {
  // Cuts every few hundred records (every ten thousand or so inside the
  // burst bin, before and after its mid-bin compactions), right after a fold,
  // and while one car is open in several cells of a bin. Each cut loads
  // the straight shard's section into a fresh shard, which must write it
  // back byte for byte and then run in step with the straight one for a
  // while: same snapshots and the same section, so the car marks and the
  // cell index rebuilt by the load behave as the originals did.
  constexpr std::size_t kRun = 300;
  for (const auto& [study_days, seed] :
       {std::pair<int, std::uint64_t>{0, 20170901u}, {28, 5u}}) {
    {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", study days " +
                   std::to_string(study_days));
      const std::vector<Step> feed = make_feed(seed);
      util::Rng rng(seed ^ 0xC07Cu);
      ShardState straight(shard_config(study_days), 0);
      struct Resumed {
        std::unique_ptr<ShardState> shard;
        std::size_t cut = 0;
      };
      std::vector<Resumed> resumed;
      std::size_t next_cut = 1;
      std::size_t cuts[3] = {0, 0, 0};  // regular, after a fold, multi-cell
      std::size_t folds_seen = 0;
      const auto compare = [&](ShardState& r, std::size_t cut,
                               const std::string& when) {
        const std::string what = when + ", cut " + std::to_string(cut);
        expect_same_snapshot(r.snapshot(), straight.snapshot(), what);
        EXPECT_EQ(image_bytes(r, study_days), image_bytes(straight, study_days))
            << what;
      };
      for (std::size_t i = 0; i < feed.size(); ++i) {
        // The previous step's advance crossed a bin boundary.
        const bool folded =
            i > 1 && feed[i - 1].watermark / time::kSecondsPerBin15 !=
                         feed[i - 2].watermark / time::kSecondsPerBin15;
        folds_seen += folded;
        int kind = -1;
        if (i == next_cut) {
          kind = 0;
          next_cut += static_cast<std::size_t>(
              feed[i].burst ? rng.uniform_int(12000, 24000)
                            : rng.uniform_int(100, 300));
        } else if (folded && folds_seen % 7 == 0) {
          kind = 1;
        } else if (feed[i].multi_cell && i > 0 && feed[i - 1].multi_cell) {
          kind = 2;
        }
        if (kind >= 0) {
          ++cuts[kind];
          auto shard =
              std::make_unique<ShardState>(shard_config(study_days), 0);
          load_shard(write_shard(straight), *shard);
          ASSERT_EQ(image_bytes(*shard, study_days),
                    image_bytes(straight, study_days))
              << "cut " << i;
          resumed.push_back({std::move(shard), i});
        }
        straight.offer(feed[i].record);
        straight.advance(feed[i].watermark);
        for (Resumed& r : resumed) {
          r.shard->offer(feed[i].record);
          r.shard->advance(feed[i].watermark);
        }
        while (!resumed.empty() && resumed.front().cut + kRun <= i) {
          compare(*resumed.front().shard, resumed.front().cut, "mid-stream");
          resumed.erase(resumed.begin());
        }
        if (::testing::Test::HasFailure()) return;
      }
      straight.close();
      for (Resumed& r : resumed) {
        r.shard->close();
        compare(*r.shard, r.cut, "finished");
      }
      EXPECT_GT(cuts[0], 20u);
      EXPECT_GT(cuts[1], 10u);
      EXPECT_GT(cuts[2], 10u);
    }
  }
}

}  // namespace
}  // namespace ccms::stream
