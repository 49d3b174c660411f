// The sharded engine's snapshot and checkpoint paths: each shard builds its
// own view or image on its worker thread and the caller merges the views.
//
//   (a) merge_snapshots against a naive std::map reference over random
//       shard snapshots: cells interleaved across shards, one cell in every
//       shard, empty shards, day bits past the horizon, and bins that only
//       some shards hold (the OR of their provisional flags);
//   (b) an operator failure inside a snapshot's advance degrades the shard
//       with the right records_lost, and the next checkpoint() names the
//       lowest degraded shard;
//   (c) two engines fed the same records and asked for the same snapshots
//       write the same checkpoint bytes, mid-stream and finished; each image
//       restores into a pristine engine that writes it back byte for byte,
//       and a DistEngine with one worker killed writes the same final
//       image.
//
// Every randomized case prints its seed on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/presence.h"
#include "dist/supervisor.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/frontend.h"
#include "stream/report.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::stream {

// Readable failure output for the busiest-cell lists.
void PrintTo(const CellActivity& c, std::ostream* os) {
  *os << "{cell " << c.cell << ", " << c.connections << " connections, median "
      << c.median_s << " s, " << c.days_active << " days}";
}

namespace {

using test::conn;

constexpr std::uint32_t kSharedCell = 7;  ///< held by every non-empty shard
constexpr std::uint32_t kHighCell = std::numeric_limits<std::uint32_t>::max();

// --- (a) merge_snapshots against a std::map reference ---------------------

StreamConfig merge_config(int shards, util::Rng& rng) {
  StreamConfig config;
  config.shards = shards;
  config.fleet_size = 48;
  config.study_days = rng.bernoulli(0.25)
                          ? 0  // horizon grown from the shards
                          : static_cast<int>(rng.uniform_int(1, 70));
  config.top_cells = static_cast<std::size_t>(rng.uniform_int(1, 40));
  config.recent_bins = static_cast<int>(rng.uniform_int(0, 10));
  return config;
}

/// Cells a shard touches: some interleaved with the other shards', the
/// shared cell, and now and then ids near UINT32_MAX.
std::set<std::uint32_t> random_cells(util::Rng& rng) {
  std::set<std::uint32_t> cells{kSharedCell};
  const auto n = rng.uniform_int(0, 30);
  for (std::int64_t i = 0; i < n; ++i) {
    cells.insert(static_cast<std::uint32_t>(rng.uniform_int(0, 60)));
  }
  if (rng.bernoulli(0.5)) {
    cells.insert(kHighCell - static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
  }
  return cells;
}

ShardSnapshot random_snapshot(int shard, const StreamConfig& config,
                              util::Rng& rng) {
  ShardSnapshot snap;
  if (rng.bernoulli(0.15)) return snap;  // an empty shard

  const auto shards = static_cast<std::uint32_t>(config.shards);
  for (std::uint32_t car = static_cast<std::uint32_t>(shard);
       car < config.fleet_size; car += shards) {
    if (!rng.bernoulli(0.7)) continue;
    snap.cars.push_back({car, rng.uniform_int(0, 100000),
                         rng.uniform_int(0, 50000),
                         static_cast<int>(rng.uniform_int(1, 9))});
  }
  const int horizon = config.study_days > 0 ? config.study_days : 40;
  snap.cars_per_day.resize(
      static_cast<std::size_t>(rng.uniform_int(0, horizon)));
  for (auto& count : snap.cars_per_day) {
    count = static_cast<std::uint32_t>(rng.uniform_int(0, 12));
  }

  snap.day_rows = {0};
  for (const std::uint32_t cell : random_cells(rng)) {
    DayBits bits;
    const auto n = rng.uniform_int(1, 6);
    for (std::int64_t i = 0; i < n; ++i) {
      bits.set(rng.uniform_int(0, horizon + 2));  // some past the horizon
    }
    // Rows as wide as their latest day needs, now and then a word wider,
    // so cells merge rows of different widths.
    snap.day_cells.push_back(cell);
    std::vector<std::uint64_t> row = bits.words();
    row.resize(row.size() + static_cast<std::size_t>(rng.uniform_int(0, 1)), 0);
    snap.day_words.insert(snap.day_words.end(), row.begin(), row.end());
    snap.day_rows.push_back(snap.day_words.size());
    if (rng.bernoulli(0.9)) {  // now and then a cell with days, no stats
      snap.cell_stats.push_back(
          {cell, static_cast<std::uint64_t>(rng.uniform_int(1, 300)),
           rng.uniform(1.0, 600.0)});
    }
  }

  for (std::int64_t bin = 100; bin < 116; ++bin) {
    if (!rng.bernoulli(0.6)) continue;  // bins only some shards hold
    BinCounts counts;
    counts.bin = bin;
    counts.cars = static_cast<std::uint32_t>(rng.uniform_int(1, 20));
    counts.provisional = rng.bernoulli(0.3);
    for (const std::uint32_t cell : random_cells(rng)) {
      counts.cells.emplace_back(
          cell, static_cast<std::uint32_t>(rng.uniform_int(1, 9)));
    }
    snap.bins.push_back(std::move(counts));
  }
  snap.records = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
  return snap;
}

/// What merge_snapshots must produce for the cell and bin sections,
/// composed the obvious way: maps keyed by cell and bin, shards visited in
/// index order.
struct Reference {
  core::DailyPresence presence;
  std::vector<CellActivity> top_cells;
  std::vector<BinCounts> bins;
  std::vector<CarId> cars;
  std::vector<int> days_per_car;
};

Reference reference_merge(const StreamConfig& config,
                          const std::vector<ShardSnapshot>& shards) {
  Reference ref;
  std::size_t observed_days = 0;
  for (const ShardSnapshot& shard : shards) {
    observed_days = std::max(observed_days, shard.cars_per_day.size());
  }
  const std::size_t n_days = std::max<std::size_t>(
      1, config.study_days > 0 ? static_cast<std::size_t>(config.study_days)
                               : observed_days);
  std::vector<std::uint64_t> cars_per_day(n_days, 0);
  std::unordered_map<std::uint32_t, DayBits> cell_days;
  std::map<std::uint32_t, std::pair<std::uint64_t, double>> cells;
  std::map<std::int64_t, std::pair<BinCounts, std::map<std::uint32_t,
                                                       std::uint32_t>>>
      bins;
  std::map<std::uint32_t, int> cars;
  for (const ShardSnapshot& shard : shards) {
    for (std::size_t d = 0; d < shard.cars_per_day.size() && d < n_days; ++d) {
      cars_per_day[d] += shard.cars_per_day[d];
    }
    for (std::size_t i = 0; i < shard.day_cells.size(); ++i) {
      DayBits bits;
      bits.assign_words(
          {shard.day_words.begin() +
               static_cast<std::ptrdiff_t>(shard.day_rows[i]),
           shard.day_words.begin() +
               static_cast<std::ptrdiff_t>(shard.day_rows[i + 1])});
      cell_days[shard.day_cells[i]].merge(bits);
    }
    for (const auto& stat : shard.cell_stats) {
      auto& [connections, weighted] = cells[stat.cell];
      connections += stat.connections;
      weighted += static_cast<double>(stat.connections) * stat.median_s;
    }
    for (const BinCounts& b : shard.bins) {
      auto& [merged, per_cell] = bins[b.bin];
      merged.bin = b.bin;
      merged.cars += b.cars;
      merged.provisional = merged.provisional || b.provisional;
      for (const auto& [cell, count] : b.cells) per_cell[cell] += count;
    }
    for (const auto& car : shard.cars) cars[car.car] = car.days;
  }
  ref.presence =
      core::presence_from_counts(config.fleet_size, cars_per_day, cell_days);

  for (const auto& [cell, agg] : cells) {
    const auto it = cell_days.find(cell);
    ref.top_cells.push_back(
        {cell, agg.first, agg.second / static_cast<double>(agg.first),
         it != cell_days.end() ? it->second.count() : 0});
  }
  std::sort(ref.top_cells.begin(), ref.top_cells.end(),
            [](const CellActivity& a, const CellActivity& b) {
              return a.connections != b.connections
                         ? a.connections > b.connections
                         : a.cell < b.cell;
            });
  if (ref.top_cells.size() > config.top_cells) {
    ref.top_cells.resize(config.top_cells);
  }

  for (auto& [bin, entry] : bins) {
    auto& [merged, per_cell] = entry;
    merged.cells.assign(per_cell.begin(), per_cell.end());
    ref.bins.push_back(std::move(merged));
  }
  if (config.recent_bins > 0 &&
      ref.bins.size() > static_cast<std::size_t>(config.recent_bins)) {
    ref.bins.erase(ref.bins.begin(), ref.bins.end() - config.recent_bins);
  }

  for (const auto& [car, days] : cars) {
    ref.cars.push_back(CarId{car});
    ref.days_per_car.push_back(days);
  }
  return ref;
}

TEST(StreamSnapshot, MergeMatchesAMapReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const int shards = static_cast<int>(rng.uniform_int(1, 8));
    const StreamConfig config = merge_config(shards, rng);
    std::vector<ShardSnapshot> snapshots;
    for (int s = 0; s < shards; ++s) {
      snapshots.push_back(random_snapshot(s, config, rng));
    }
    const Reference ref = reference_merge(config, snapshots);

    const Frontend frontend(config);
    const StreamReport report = merge_snapshots(frontend, snapshots, {});
    const std::string where = "seed " + std::to_string(seed) + ", " +
                              std::to_string(shards) + " shards";
    EXPECT_EQ(report.presence, ref.presence) << where;
    EXPECT_EQ(report.top_cells, ref.top_cells) << where;
    EXPECT_EQ(report.recent_bins, ref.bins) << where;
    EXPECT_EQ(report.days.cars, ref.cars) << where;
    EXPECT_EQ(report.days.days_per_car, ref.days_per_car) << where;
  }
}

// --- (b) an operator failure inside a snapshot's advance -------------------

constexpr std::uint32_t kPoisonCell = 5;
constexpr std::size_t kBatch = 4;

StreamConfig engine_config(int shards) {
  StreamConfig config;
  config.shards = shards;
  config.allowed_lateness = 300;
  config.fleet_size = 16;
  config.study_days = 2;
  config.batch_records = kBatch;
  return config;
}

TEST(StreamSnapshot, FailureInASnapshotsAdvanceDegradesTheShard) {
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    // The last shard fails, and shard 1 too where there are four or more,
    // so the checkpoint must name the lower one.
    std::set<int> poisoned{shards - 1};
    if (shards >= 4) poisoned.insert(1);

    StreamConfig config = engine_config(shards);
    config.operator_hook = [](int, const cdr::Connection& c) {
      if (c.cell.value == kPoisonCell) throw std::runtime_error("poison");
    };
    ShardedEngine engine(config);
    // One full batch per poisoned shard, cut at watermark 703: nothing in
    // it is integrated yet.
    for (const int shard : poisoned) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        engine.push(conn(static_cast<std::uint32_t>(shard), kPoisonCell,
                         1000 + static_cast<time::Seconds>(i), 60));
      }
    }
    // Raises the watermark to 4700 from shard 0's pending batch. With two
    // or more shards the poisoned ones hold no pending batch, so the
    // snapshot's own advance integrates their records and fails; with one,
    // the failure comes from the batch the snapshot flushes.
    engine.push(conn(0, 9, 5000, 60));

    const StreamReport report = engine.snapshot();
    ASSERT_EQ(report.degraded_shards.size(), poisoned.size());
    std::uint64_t lost = 0;
    auto shard = poisoned.begin();
    for (const DegradedShard& d : report.degraded_shards) {
      EXPECT_EQ(d.shard, *shard);
      EXPECT_EQ(d.reason, "poison");
      const std::uint64_t expected = shards == 1 ? kBatch + 1 : kBatch;
      EXPECT_EQ(d.records_lost, expected) << "shard " << d.shard;
      lost += d.records_lost;
      ++shard;
    }
    EXPECT_EQ(report.engine.records_routed,
              report.engine.records_integrated +
                  report.engine.reorder_pending + lost);
    EXPECT_DOUBLE_EQ(report.coverage_fraction,
                     1.0 - static_cast<double>(lost) /
                               static_cast<double>(
                                   report.engine.records_routed));

    const std::string lowest = "shard " + std::to_string(*poisoned.begin());
    try {
      (void)engine.checkpoint();
      ADD_FAILURE() << "checkpoint of a degraded engine did not throw";
    } catch (const StreamStateError& e) {
      EXPECT_NE(std::string(e.what()).find(lowest + " is degraded"),
                std::string::npos)
          << e.what();
    }

    // The degraded shards keep draining; later snapshots still report them,
    // after finish() too, and checkpoint() keeps refusing.
    engine.push(conn(0, 9, 6000, 60));
    engine.finish();
    const StreamReport final_report = engine.snapshot();
    ASSERT_EQ(final_report.degraded_shards.size(), poisoned.size());
    EXPECT_EQ(final_report.degraded_shards.front().shard, *poisoned.begin());
    EXPECT_THROW((void)engine.checkpoint(), StreamStateError);
  }
}

// --- (c) equal feeds, equal images -----------------------------------------

std::vector<cdr::Connection> random_feed(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<cdr::Connection> feed;
  feed.reserve(n);
  time::Seconds clock = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    clock += rng.uniform_int(0, 25);
    auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 400));
    if (rng.bernoulli(0.02)) cell = kHighCell - (cell % 4);
    std::int32_t duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
    if (rng.bernoulli(0.03)) duration = 3600;  // dirty: screened out
    if (rng.bernoulli(0.02)) duration = 40000;  // spans many bins and days
    // Some arrive late inside the lateness window, a few past it.
    const time::Seconds start =
        clock - (rng.bernoulli(0.1) ? rng.uniform_int(0, 280) : 0) -
        (rng.bernoulli(0.005) ? 5000 : 0);
    feed.push_back(conn(static_cast<std::uint32_t>(rng.uniform_int(0, 63)),
                        cell, start, duration));
  }
  return feed;
}

StreamConfig feed_config(int shards) {
  StreamConfig config;
  config.shards = shards;
  config.allowed_lateness = 300;
  config.fleet_size = 64;
  config.study_days = 3;
  config.batch_records = 32;
  config.recent_bins = 48;
  return config;
}

/// Generated-input fixed point: `image` decodes, restores into a pristine
/// engine, and that engine's checkpoint encodes to `image` again.
void expect_fixed_point(const std::vector<std::uint8_t>& image, int shards,
                        const std::string& what) {
  cdr::IngestReport report;
  const auto decoded = decode(image, {}, report);
  ASSERT_TRUE(decoded.has_value()) << what;
  ShardedEngine restored(feed_config(shards));
  ASSERT_TRUE(restored.restore(*decoded)) << what;
  EXPECT_EQ(encode(restored.checkpoint()), image) << what;
}

TEST(StreamSnapshot, EqualFeedsWriteEqualImages) {
  const std::uint64_t seed = 20170901;
  const std::vector<cdr::Connection> feed = random_feed(seed, 30000);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                 std::to_string(shards) + " shards");
    ShardedEngine first(feed_config(shards));
    ShardedEngine second(feed_config(shards));
    util::Rng cuts(seed + static_cast<std::uint64_t>(shards));
    std::size_t pos = 0;
    while (pos < feed.size()) {
      const auto step = static_cast<std::size_t>(cuts.uniform_int(1, 6000));
      const std::size_t end = std::min(feed.size(), pos + step);
      const std::span<const cdr::Connection> slice(feed.data() + pos,
                                                   end - pos);
      first.push(slice);
      second.push(slice);
      pos = end;
      // The second engine is read from another thread, as the contract
      // allows; the calls are still sequenced with the pushes.
      StreamReport second_report;
      std::vector<std::uint8_t> second_image;
      const bool snapshot_first = cuts.bernoulli(0.5);
      std::thread reader([&] {
        if (snapshot_first) second_report = second.snapshot();
        second_image = encode(second.checkpoint());
      });
      const StreamReport first_report =
          snapshot_first ? first.snapshot() : StreamReport{};
      const std::vector<std::uint8_t> first_image = encode(first.checkpoint());
      reader.join();
      ASSERT_EQ(first_image, second_image) << "after " << pos << " records";
      expect_fixed_point(first_image, shards,
                         "after " + std::to_string(pos) + " records");
      std::string why;
      EXPECT_TRUE(reports_identical(first_report, second_report, &why))
          << "after " << pos << " records: " << why;
    }
    first.finish();
    second.finish();
    const std::vector<std::uint8_t> finished = encode(first.checkpoint());
    EXPECT_EQ(encode(second.checkpoint()), finished);
    expect_fixed_point(finished, shards, "finished");

    // The distributed engine, one worker killed halfway through its share
    // and restarted from its rolling image, writes the final image of an
    // in-process engine fed the same way (the cuts above batch the feed
    // differently, which moves each shard's reorder_peak).
    ShardedEngine whole(feed_config(shards));
    whole.push(feed);
    whole.finish();
    dist::DistConfig dist_config;
    dist_config.stream = feed_config(shards);
    dist_config.checkpoint_every = 1024;
    dist_config.faults[shards > 1 ? 1 : 0] = {
        .crash_after = feed.size() / static_cast<std::size_t>(2 * shards)};
    dist::DistEngine killed(dist_config);
    killed.push(feed);
    killed.finish();
    EXPECT_EQ(killed.restarts_total(), 1);
    EXPECT_EQ(encode(killed.checkpoint()), encode(whole.checkpoint()));
    std::string why;
    EXPECT_TRUE(reports_identical(first.snapshot(), second.snapshot(), &why))
        << why;

    // And the finished image restores to the same final report.
    ShardedEngine restored(feed_config(shards));
    ASSERT_TRUE(restored.restore(first.checkpoint()));
    EXPECT_TRUE(restored.finished());
    EXPECT_TRUE(reports_identical(first.snapshot(), restored.snapshot(), &why))
        << why;
  }
}

}  // namespace
}  // namespace ccms::stream
