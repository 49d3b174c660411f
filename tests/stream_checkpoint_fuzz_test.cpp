// Deterministic fuzz corpus over stream::Checkpoint binary images: bit
// flips, truncations and section reorders of a real engine image. Decode
// must never crash and never hand back partial state — every damaged image
// is rejected through the Strict/Lenient discipline with a binary-reader
// fault class (kBadHeader / kTruncatedPayload / kChecksumMismatch /
// kCheckpointMismatch), and strict mode throws util::CsvError at the same
// damage lenient mode accounts.
#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cdr/integrity.h"
#include "shard_section.h"
#include "stream/engine.h"
#include "stream/operators.h"
#include "test_helpers.h"
#include "util/binio.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using test::conn;

/// A checkpoint image with real state in every section: clean-screen drops,
/// quarantined late records, mid-session sessionizers, P2 markers and
/// exactly-once cursors.
std::vector<std::uint8_t> engine_image() {
  StreamConfig config;
  config.shards = 3;
  config.allowed_lateness = 300;
  config.fleet_size = 24;
  config.study_days = 7;
  config.batch_records = 16;
  config.exactly_once = true;

  ShardedEngine engine(config);
  util::Rng rng(0xFE2u);
  time::Seconds t = 1000;
  for (int i = 0; i < 600; ++i) {
    t += rng.uniform_int(1, 40);
    const auto car = static_cast<std::uint32_t>(rng.uniform_int(0, 23));
    const auto cell = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    auto duration = static_cast<std::int32_t>(rng.uniform_int(1, 900));
    const double dice = rng.uniform();
    if (dice < 0.02) duration = 3600;          // hour artifact
    else if (dice < 0.04) duration = 0;        // nonpositive
    else if (dice < 0.05) duration = 500000;   // implausible
    time::Seconds start = t;
    if (dice > 0.97 && t > 2000) start = t - 1500;  // quarantined late
    engine.push(conn(car, cell, start, duration));
  }
  return encode(engine.checkpoint());
}

const std::vector<std::uint8_t>& image() {
  static const std::vector<std::uint8_t> bytes = engine_image();
  return bytes;
}

cdr::IngestOptions mode(cdr::ParseMode m) {
  cdr::IngestOptions options;
  options.mode = m;
  return options;
}

/// The four fault classes the binary reader is allowed to surface.
std::uint64_t binary_faults(const cdr::IngestReport& report) {
  return report.count(cdr::FaultClass::kBadHeader) +
         report.count(cdr::FaultClass::kTruncatedPayload) +
         report.count(cdr::FaultClass::kChecksumMismatch) +
         report.count(cdr::FaultClass::kCheckpointMismatch);
}

/// Lenient decode must reject the image outright (no partial state) with at
/// least one fault, all of them binary-reader classes; strict decode must
/// throw util::CsvError on the same bytes.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  cdr::IngestReport report;
  const auto decoded = decode(bytes, mode(cdr::ParseMode::kLenient), report);
  EXPECT_FALSE(decoded.has_value()) << what;
  EXPECT_GE(report.total_faults(), 1u) << what;
  EXPECT_EQ(binary_faults(report), report.total_faults())
      << what << ": non-binary fault class surfaced";

  cdr::IngestReport strict_report;
  EXPECT_THROW(static_cast<void>(
                   decode(bytes, mode(cdr::ParseMode::kStrict), strict_report)),
               util::CsvError)
      << what;
}

TEST(CheckpointFuzz, CleanImageRoundTripsByteIdentically) {
  cdr::IngestReport report;
  const auto decoded = decode(image(), mode(cdr::ParseMode::kLenient), report);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(report.total_faults(), 0u);
  EXPECT_EQ(encode(*decoded), image());
}

TEST(CheckpointFuzz, EverySingleBitFlipIsRejected) {
  // Exhaustive over the header and framing-dense prefix, sampled beyond.
  std::vector<std::size_t> positions;
  const std::size_t n = image().size();
  for (std::size_t byte = 0; byte < std::min<std::size_t>(n, 64); ++byte) {
    positions.push_back(byte);
  }
  util::Rng rng(0xB17F11u);
  for (int i = 0; i < 400; ++i) {
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }
  for (const std::size_t byte : positions) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = image();
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_rejected(damaged, "flip byte " + std::to_string(byte) + " bit " +
                                   std::to_string(bit));
    }
  }
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const std::size_t n = image().size();
  std::vector<std::size_t> lengths;
  // Exhaustive through the header + first frames, then a deterministic
  // stride, always including the off-by-one tail.
  for (std::size_t len = 0; len < std::min<std::size_t>(n, 256); ++len) {
    lengths.push_back(len);
  }
  for (std::size_t len = 256; len < n; len += 97) lengths.push_back(len);
  lengths.push_back(n - 1);
  for (const std::size_t len : lengths) {
    const std::vector<std::uint8_t> damaged(image().begin(),
                                            image().begin() + len);
    expect_rejected(damaged, "truncate to " + std::to_string(len));
  }
}

/// One framed section: [tag u32 | len u64 | payload | crc u32].
struct Frame {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Splits the image into its header and section frames by walking the
/// declared lengths (the image is known-good, so framing is trusted here).
std::vector<Frame> frames(const std::vector<std::uint8_t>& bytes,
                          std::size_t header_len = 8) {
  std::vector<Frame> out;
  std::size_t pos = header_len;
  while (pos < bytes.size()) {
    std::uint64_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + pos + 4, sizeof(payload_len));
    const std::size_t total = 4 + 8 + payload_len + 4;
    out.push_back({pos, pos + total});
    pos += total;
  }
  return out;
}

std::vector<std::uint8_t> reassemble(const std::vector<std::uint8_t>& bytes,
                                     const std::vector<Frame>& order) {
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + 8);
  for (const Frame& f : order) {
    out.insert(out.end(), bytes.begin() + f.begin, bytes.begin() + f.end);
  }
  return out;
}

TEST(CheckpointFuzz, SectionReordersAreRejected) {
  const auto sections = frames(image());
  // CONF + PROD + one per shard.
  ASSERT_EQ(sections.size(), 5u);

  // Every adjacent swap.
  for (std::size_t i = 0; i + 1 < sections.size(); ++i) {
    auto order = sections;
    std::swap(order[i], order[i + 1]);
    expect_rejected(reassemble(image(), order),
                    "swap sections " + std::to_string(i) + "," +
                        std::to_string(i + 1));
  }
  // Full reversal.
  {
    auto order = sections;
    std::reverse(order.begin(), order.end());
    expect_rejected(reassemble(image(), order), "reverse sections");
  }
  // A duplicated trailing section and a dropped one change the geometry.
  {
    auto order = sections;
    order.push_back(order.back());
    expect_rejected(reassemble(image(), order), "duplicate last section");
  }
  {
    auto order = sections;
    order.pop_back();
    expect_rejected(reassemble(image(), order), "drop last section");
  }
}

/// A one-shard image whose section is written by hand.
std::vector<std::uint8_t> image_with(std::vector<std::uint8_t> section) {
  StreamConfig config;
  config.study_days = 7;
  Checkpoint checkpoint = image_skeleton(config, false);
  checkpoint.shards[0] = std::move(section);
  return encode(checkpoint);
}

TEST(CheckpointFuzz, HandWrittenSectionIsThePlaceholder) {
  // The hand-written layout the cases below build on is the codec's own,
  // and image_skeleton's placeholder is an empty shard without a day table
  // even when the config has study days.
  StreamConfig config;
  config.shards = 3;
  config.study_days = 7;
  config.fleet_size = 24;
  const Checkpoint skeleton = image_skeleton(config, false);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(skeleton.shards[i], test::shard_section(i, test::no_cells))
        << "shard " << i;
  }
}

TEST(CheckpointFuzz, CountBelowTheElementFloorIsRejectedBeforeAllocating) {
  // One fresh per-cell entry, 10 bytes: a one-byte cell delta, a one-byte
  // connection count and the smallest P2 state (mask, count, ignored and
  // five heights, one byte each). Its list declares `count` entries.
  std::size_t count_at = 0;
  const auto section = [&](std::uint64_t count) {
    return test::shard_section(0, [&](binio::Writer& w) {
      count_at = w.buffer().size();
      w.u64(count);
      w.uvarint(7);
      w.uvarint(1);
      test::fresh_p2(w);
    });
  };
  const std::vector<std::uint8_t> one = section(1);
  {
    cdr::IngestReport report;
    ASSERT_TRUE(decode(image_with(one), mode(cdr::ParseMode::kStrict), report)
                    .has_value());
  }

  // A count that 2 bytes per entry (the cell delta and connection varints
  // alone) would admit but the 10-byte minimum of one entry cannot.
  const std::uint64_t remaining = one.size() - 16 - (count_at + 8);
  const std::uint64_t count = remaining / 2;
  ASSERT_GT(count, remaining / 10);
  const std::vector<std::uint8_t> damaged = image_with(section(count));

  cdr::IngestReport report;
  EXPECT_FALSE(
      decode(damaged, mode(cdr::ParseMode::kLenient), report).has_value());
  EXPECT_EQ(report.count(cdr::FaultClass::kTruncatedPayload), 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].reason,
            "declared count overruns section payload");
  expect_rejected(damaged, "declared count between the old and true floor");
}

TEST(CheckpointFuzz, CellsInOnePerCellListOnlyWriteBackAsRead) {
  // Cell 3 has day words but no duration entry, cell 9 the reverse; a
  // shard lists every cell it touched in both, but keeps which list a
  // section named a cell in, so the section writes back byte for byte.
  const std::vector<std::uint8_t> section = test::shard_section(
      0,
      [](binio::Writer& w) {
        w.u64(1);
        w.uvarint(9);
        w.uvarint(1);
        test::fresh_p2(w);
      },
      {},
      [](binio::Writer& w) {
        w.u64(1);
        w.u32(3);
        w.vec_u64({0, 0x5});  // days 64 and 66
      });
  cdr::IngestReport report;
  const auto decoded =
      decode(image_with(section), mode(cdr::ParseMode::kStrict), report);
  ASSERT_TRUE(decoded.has_value());
  ShardState shard(StreamConfig{}, 0);
  load_shard(decoded->shards[0], shard);
  EXPECT_EQ(write_shard(shard), section);
  const ShardSnapshot view = shard.snapshot();
  EXPECT_EQ(view.day_cells, std::vector<std::uint32_t>{3});
  ASSERT_EQ(view.cell_stats.size(), 1u);
  EXPECT_EQ(view.cell_stats[0].cell, 9u);
}

TEST(CheckpointFuzz, ALongDayRowWidensOnlyItsOwnCell) {
  // Each cell holds only the day words it was given: one row of 4000 words
  // next to 4000 one-word rows costs 8000 words, not 4001 rows of 4000, so
  // a section's cells cannot multiply into an allocation its bytes do not
  // show.
  constexpr std::uint32_t kCells = 4000;
  const std::vector<std::uint8_t> section = test::shard_section(
      0, test::no_cells, {}, [](binio::Writer& w) {
        w.u64(kCells + 1);
        for (std::uint32_t cell = 0; cell < kCells; ++cell) {
          w.u32(cell);
          w.vec_u64({1});
        }
        std::vector<std::uint64_t> long_row(kCells, 0);
        long_row.back() = 1;
        w.u32(kCells);
        w.vec_u64(long_row);
      });
  ShardState shard(StreamConfig{}, 0);
  load_shard(section, shard);
  EXPECT_EQ(write_shard(shard), section);
  const ShardSnapshot view = shard.snapshot();
  EXPECT_EQ(view.day_cells.size(), kCells + 1);
  EXPECT_EQ(view.day_words.size(), 2 * kCells);
}

TEST(CheckpointFuzz, CellDayWordsEndingInAZeroWordAreRejected) {
  // A cell's words run to its highest nonzero one, the only form a shard
  // writes: a trailing zero word would not write back.
  const std::vector<std::uint8_t> bytes = image_with(test::shard_section(
      0, test::no_cells, {}, [](binio::Writer& w) {
        w.u64(1);
        w.u32(3);
        w.vec_u64({0x5, 0});
      }));
  cdr::IngestReport report;
  EXPECT_FALSE(
      decode(bytes, mode(cdr::ParseMode::kLenient), report).has_value());
  EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].reason, "cell day words end in a zero word");
  expect_rejected(bytes, "cell day words with a trailing zero word");
}

// --- Open-bin lists a shard never writes. Two canonical bins: the first
// holds two cars and two cells, the first cell two cars.

using ActiveBins = std::vector<test::SectionBin>;

ActiveBins canonical_bins() {
  return {{.bin = 100, .cars = {1, 2, 3}, .per_cell = {{5, {1, 2}}, {9, {3}}}},
          {.bin = 101, .cars = {2}, .per_cell = {{5, {2}}}}};
}

std::vector<std::uint8_t> image_with(const ActiveBins& bins) {
  return image_with(test::shard_section(0, test::no_cells, bins));
}

/// The canonical bins with `mutate` applied: a CRC-valid image that only
/// the canonical-list checks can reject. Returns the one fault's reason.
template <class Fn>
std::string expect_active_bins_rejected(Fn mutate, const std::string& what) {
  ActiveBins bins = canonical_bins();
  mutate(bins);
  const std::vector<std::uint8_t> bytes = image_with(bins);

  cdr::IngestReport report;
  EXPECT_FALSE(
      decode(bytes, mode(cdr::ParseMode::kLenient), report).has_value())
      << what;
  EXPECT_EQ(report.count(cdr::FaultClass::kCheckpointMismatch), 1u) << what;
  expect_rejected(bytes, what);
  return report.quarantine.empty() ? "" : report.quarantine[0].reason;
}

TEST(CheckpointFuzz, CanonicalActiveBinsDecode) {
  cdr::IngestReport report;
  const auto decoded = decode(image_with(canonical_bins()),
                              mode(cdr::ParseMode::kStrict), report);
  ASSERT_TRUE(decoded.has_value());
  StreamConfig config;
  ShardState shard(config, 0);
  load_shard(decoded->shards[0], shard);
  const ShardSnapshot view = shard.snapshot();
  ASSERT_EQ(view.bins.size(), 2u);
  EXPECT_EQ(view.bins[0].cars, 3u);
  EXPECT_EQ(view.bins[0].cells,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{{5, 2},
                                                                  {9, 1}}));
  EXPECT_TRUE(view.bins[0].provisional);
  // And the shard writes the same lists back.
  EXPECT_EQ(write_shard(shard), decoded->shards[0]);
}

TEST(CheckpointFuzz, ALoadedCarCountsInTheBinsItIsNotIn) {
  // Car 1 is in bins 100 and 102 but not 101, a form no shard writes
  // (a car's open bins run unbroken from the oldest). A record of car 1
  // in bin 101 after the load must count it there.
  const ActiveBins bins = {
      {.bin = 100, .cars = {1}, .per_cell = {{5, {1}}}},
      {.bin = 101, .cars = {2}, .per_cell = {{5, {2}}}},
      {.bin = 102, .cars = {1}, .per_cell = {{5, {1}}}}};
  ShardState shard(StreamConfig{}, 0);
  load_shard(test::shard_section(0, test::no_cells, bins, test::no_cells,
                                 {1, 2}),
             shard);
  shard.offer(test::conn(1, 5, 101 * 900 + 10, 30));
  shard.advance(101 * 900 + 50);
  const ShardSnapshot view = shard.snapshot();
  ASSERT_EQ(view.bins.size(), 3u);
  EXPECT_EQ(view.bins[0], (BinCounts{100, 1, {{5, 1}}, false}));
  EXPECT_EQ(view.bins[1], (BinCounts{101, 2, {{5, 2}}, true}));
  EXPECT_EQ(view.bins[2], (BinCounts{102, 1, {{5, 1}}, true}));
}

TEST(CheckpointFuzz, ActiveBinsOutOfOrderAreRejected) {
  expect_active_bins_rejected(
      [](ActiveBins& bins) { std::swap(bins[0].bin, bins[1].bin); },
      "active bins swapped");
}

TEST(CheckpointFuzz, ActiveBinCarsNotStrictlyAscendingAreRejected) {
  expect_active_bins_rejected(
      [](ActiveBins& bins) { bins[0].cars[1] = bins[0].cars[0]; },
      "active-bin car repeated");
}

TEST(CheckpointFuzz, ActiveBinCellsNotStrictlyAscendingAreRejected) {
  expect_active_bins_rejected(
      [](ActiveBins& bins) {
        std::swap(bins[0].per_cell[0], bins[0].per_cell[1]);
      },
      "active-bin cells swapped");
}

TEST(CheckpointFuzz, ActiveBinMemberCarsNotStrictlyAscendingAreRejected) {
  expect_active_bins_rejected(
      [](ActiveBins& bins) {
        auto& members = bins[0].per_cell[0].second;
        std::swap(members[0], members[1]);
      },
      "active-bin member cars swapped");
}

TEST(CheckpointFuzz, ActiveBinEmptyMemberListIsRejected) {
  // The hash-set shard restored this as a (cell, 0) count; a canonical
  // image never carries it.
  expect_active_bins_rejected(
      [](ActiveBins& bins) { bins[0].per_cell[0].second.clear(); },
      "active-bin cell with no member cars");
}

TEST(CheckpointFuzz, ActiveBinCarsOtherThanItsCellsCarsAreRejected) {
  // The shard counts a bin's distinct cars from its keys, so a cars list
  // that is not the set of its cells' member cars has no state to load
  // into: a car missing from the list, and one no cell holds.
  EXPECT_EQ(expect_active_bins_rejected(
                [](ActiveBins& bins) { bins[0].cars = {1, 2}; },
                "active-bin car missing from the list"),
            "active-bin cars are not the cars of its cells");
  EXPECT_EQ(expect_active_bins_rejected(
                [](ActiveBins& bins) { bins[1].cars = {2, 5}; },
                "active-bin car in no cell"),
            "active-bin cars are not the cars of its cells");
}

TEST(CheckpointFuzz, ActiveBinsSpanningPastTheWindowAreRejected) {
  // The open bins live in a window of at most ShardState::kMaxOpenBins
  // bins, so two bins further apart are refused before any is placed.
  expect_active_bins_rejected(
      [](ActiveBins& bins) {
        bins[1].bin = bins[0].bin + ShardState::kMaxOpenBins;
      },
      "active bins a window apart");
  expect_active_bins_rejected(
      [](ActiveBins& bins) {
        bins[0].bin = std::numeric_limits<std::int64_t>::min();
        bins[1].bin = std::numeric_limits<std::int64_t>::max();
      },
      "active bins at both ends of the index range");
}

TEST(CheckpointFuzz, ActiveBinFaultsAreNamedInReadingOrder) {
  // The first fault as the list is read: a bin's index, its cars, then
  // each cell's id and member list.
  EXPECT_EQ(expect_active_bins_rejected(
                [](ActiveBins& bins) {
                  bins[0].per_cell[0].second.clear();
                  std::swap(bins[0].bin, bins[1].bin);
                },
                "empty members, then a bin out of order"),
            "active-bin cell has an empty member list");
  EXPECT_EQ(expect_active_bins_rejected(
                [](ActiveBins& bins) {
                  std::swap(bins[0].per_cell[0].second[0],
                            bins[0].per_cell[0].second[1]);
                  std::swap(bins[0].per_cell[0], bins[0].per_cell[1]);
                  bins[1].cars = {2, 2};
                },
                "members, cells and a later bin's cars"),
            "active-bin cells do not strictly ascend");
  EXPECT_EQ(expect_active_bins_rejected(
                [](ActiveBins& bins) {
                  bins[0].per_cell[1].second.clear();
                  bins[0].cars = {3, 1, 2};
                },
                "members after cars"),
            "active-bin cars do not strictly ascend");
}

}  // namespace
}  // namespace ccms::stream
