// The CCKP image stores P2 quantile states in a compact layout (DESIGN.md
// §11): canonical fields are rebuilt on read, everything else travels as
// raw f64. These tests drive real estimators through dirty inputs, round-trip
// their states through encode/decode and require every field back bit for
// bit, and a restored estimator to keep producing the original's estimates.
// The producer's duration estimator (a PROD field) and a shard's per-cell
// estimators (SHRD entries) share the one P2 field list; the per-cell
// entries, which no shard can be made to hold for odd states, are written
// by hand (shard_section.h). They also feed decode hostile per-cell
// entries.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cdr/integrity.h"
#include "shard_section.h"
#include "stats/p2_quantile.h"
#include "stream/checkpoint.h"
#include "stream/operators.h"
#include "util/binio.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ccms::stream {
namespace {

using stats::P2Quantile;

/// The next observation of a stream of kind `kind`: 0 = whole seconds as
/// CDR durations are, 1 = fractional and negative values, -0.0, 1e300 and
/// NaN mixed in.
double observation(util::Rng& rng, int kind) {
  if (kind == 0) return static_cast<double>(rng.uniform_int(1, 900));
  switch (rng.uniform_int(0, 7)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -0.0;
    case 2: return 1e300;
    case 3: return -static_cast<double>(rng.uniform_int(1, 50));
    default: return rng.uniform() * 1000.0;
  }
}

struct Case {
  double q;
  std::int64_t count;  ///< finite observations
  int kind;
  std::string label() const {
    return "q=" + std::to_string(q) + " count=" + std::to_string(count) +
           " kind=" + std::to_string(kind);
  }
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const double q : {0.5, 0.9, 0.001}) {
    for (const std::int64_t count : {0, 1, 2, 3, 4, 5, 100000}) {
      for (const int kind : {0, 1}) out.push_back({q, count, kind});
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const P2Quantile::State& a, const P2Quantile::State& b,
                      const std::string& what) {
  EXPECT_EQ(bits(a.q), bits(b.q)) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.ignored, b.ignored) << what;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(bits(a.heights[i]), bits(b.heights[i])) << what << " h" << i;
    EXPECT_EQ(bits(a.positions[i]), bits(b.positions[i])) << what << " n" << i;
    EXPECT_EQ(bits(a.desired[i]), bits(b.desired[i])) << what << " d" << i;
    EXPECT_EQ(bits(a.increments[i]), bits(b.increments[i]))
        << what << " i" << i;
  }
}

StreamConfig one_shard() {
  StreamConfig config;
  config.allowed_lateness = 0;
  return config;
}

/// A per-cell duration list of one entry: cell 7, 12345 connections and
/// `state`, in the all-raw P2 form.
auto one_cell(const P2Quantile::State& state) {
  return [state](binio::Writer& w) {
    w.u64(1);
    w.uvarint(7);  // the cell's delta from 0
    w.uvarint(12345);
    test::raw_p2(w, state);
  };
}

/// A one-shard checkpoint carrying `state` as the producer's duration
/// estimator and as one per-cell entry.
Checkpoint holding(const P2Quantile::State& state) {
  Checkpoint c = image_skeleton(one_shard(), false);
  c.producer.durations.p2 = state;
  c.shards[0] = test::shard_section(0, one_cell(state));
  return c;
}

Checkpoint round_trip(const Checkpoint& c) {
  cdr::IngestReport report;
  auto decoded = decode(encode(c), {}, report);
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(Checkpoint{});
}

/// A shard loaded from `c`'s only section.
ShardState loaded(const Checkpoint& c) {
  ShardState shard(one_shard(), 0);
  load_shard(c.shards.at(0), shard);
  return shard;
}

TEST(P2StateLayout, RealStatesRoundTripBitForBitAndContinueIdentically) {
  for (const Case& c : cases()) {
    util::Rng rng(0x9E2u + static_cast<std::uint64_t>(c.count) +
                  static_cast<std::uint64_t>(c.kind));
    P2Quantile original(c.q);
    if (c.kind == 1) original.add(std::numeric_limits<double>::quiet_NaN());
    while (original.count() < c.count) original.add(observation(rng, c.kind));
    const P2Quantile::State state = original.state();
    ASSERT_EQ(state.ignored > 0, c.kind == 1) << c.label();

    const Checkpoint decoded = round_trip(holding(state));
    expect_same_bits(decoded.producer.durations.p2, state,
                     c.label() + " producer");

    // The shard reads the entry into cell 7's estimator.
    ShardState shard = loaded(decoded);
    const ShardSnapshot view = shard.snapshot();
    ASSERT_EQ(view.cell_stats.size(), 1u) << c.label();
    EXPECT_EQ(view.cell_stats[0].cell, 7u);
    EXPECT_EQ(view.cell_stats[0].connections, 12345u);
    EXPECT_EQ(bits(view.cell_stats[0].median_s), bits(original.value()))
        << c.label();

    // Whole-second durations continue both the restored producer
    // estimator and the shard's; the shard's sees the shard's records.
    P2Quantile restored(0.5);
    restored.restore(decoded.producer.durations.p2);
    P2Quantile twin = original;
    time::Seconds t = 0;
    for (int i = 0; i < 10000; ++i) {
      const double x = observation(rng, c.kind);
      original.add(x);
      restored.add(x);
      const auto d = static_cast<std::int32_t>(rng.uniform_int(1, 900));
      twin.add(static_cast<double>(d));
      shard.offer(cdr::Connection{CarId{1}, CellId{7}, t += 1000, d});
    }
    shard.close();
    EXPECT_EQ(bits(restored.value()), bits(original.value())) << c.label();
    expect_same_bits(restored.state(), original.state(),
                     c.label() + " continued");
    EXPECT_EQ(bits(shard.snapshot().cell_stats[0].median_s),
              bits(twin.value()))
        << c.label() << " shard continued";
  }
}

TEST(P2StateLayout, OddStatesRoundTripThroughTheRawFallback) {
  // States no estimator produces: every field off its canonical form.
  P2Quantile::State odd;
  odd.q = 0.5;
  odd.count = -3;
  odd.ignored = std::numeric_limits<std::int64_t>::min();
  odd.heights = {-0.0, std::numeric_limits<double>::quiet_NaN(), 0x1p63,
                 -0x1p63, std::numeric_limits<double>::infinity()};
  odd.positions = {0, -0.0, 1, 2, 3};
  odd.desired = {1, 2, 3, 4, 5};
  odd.increments = {0, 0, 0, 0, 0};
  for (const P2Quantile::State& state : {odd, [&] {
         P2Quantile::State markers = odd;
         markers.count = 9;
         markers.heights = {1, 2, 3, 4, 5};
         markers.positions = {1, 2, 3.5, 4, 9};  // one fractional position
         return markers;
       }()}) {
    const Checkpoint decoded = round_trip(holding(state));
    expect_same_bits(decoded.producer.durations.p2, state, "odd producer");
    // The shard takes the entry and writes it back in the compact layout
    // (lossless, as the producer's shows), which reads back to itself.
    ShardState shard = loaded(decoded);
    const std::vector<std::uint8_t> section = write_shard(shard);
    EXPECT_LT(section.size(), decoded.shards[0].size());
    ShardState again(one_shard(), 0);
    load_shard(section, again);
    EXPECT_EQ(write_shard(again), section);
  }
}

/// Bytes one per-cell entry adds to a shard's section, as the shard writes
/// it.
std::size_t entry_bytes(const P2Quantile::State& state) {
  ShardState none(one_shard(), 0);
  ShardState one = loaded(holding(state));
  return write_shard(one).size() - write_shard(none).size();
}

TEST(P2StateLayout, CanonicalStatesAreCompact) {
  util::Rng rng(0x51CEu);
  P2Quantile median(0.5);
  P2Quantile tail(0.9);
  for (int i = 0; i < 100000; ++i) {
    const double x = observation(rng, 0);
    median.add(x);
    tail.add(x);
  }
  // Each entry leads with a 1-byte cell delta and 2-byte connections. Then
  // the mask (1 byte), count (3), ignored (1), the whole min and max
  // heights and three positions (at most 3 each) and the three interior
  // heights, fractional and so raw (8 each).
  EXPECT_LE(entry_bytes(median.state()), 3u + 1 + 3 + 1 + 5 * 3 + 3 * 8);
  // q = 0.9's increments do not sum exactly, so q and its schedule go raw.
  EXPECT_GE(entry_bytes(tail.state()), 8u * (1 + 10));
  // A fresh estimator: mask, count, ignored and five zero heights.
  EXPECT_EQ(entry_bytes(P2Quantile(0.5).state()), 3u + 8);
}

// --- Hostile per-cell entries.

/// Lenient decode rejects the image with exactly one fault of `fault`;
/// strict decode throws on it.
void expect_fault(const std::vector<std::uint8_t>& bytes,
                  cdr::FaultClass fault, const std::string& what) {
  cdr::IngestOptions lenient;
  lenient.mode = cdr::ParseMode::kLenient;
  cdr::IngestReport report;
  EXPECT_FALSE(decode(bytes, lenient, report).has_value()) << what;
  EXPECT_EQ(report.total_faults(), 1u) << what;
  EXPECT_EQ(report.count(fault), 1u) << what;

  cdr::IngestReport strict_report;
  EXPECT_THROW(static_cast<void>(decode(bytes, {}, strict_report)),
               util::CsvError)
      << what;
}

/// An image whose shard holds two fresh cells, 0xFFFFFFF0 and the one
/// `delta` above it; `connections` are the second cell's count as raw
/// varint bytes.
std::vector<std::uint8_t> two_cells(
    std::uint64_t delta, const std::vector<std::uint8_t>& connections) {
  Checkpoint c = image_skeleton(one_shard(), false);
  c.shards[0] = test::shard_section(0, [&](binio::Writer& w) {
    w.u64(2);
    w.uvarint(0xFFFFFFF0u);
    w.uvarint(1);
    test::fresh_p2(w);
    w.uvarint(delta);
    w.bytes(connections);
    test::fresh_p2(w);
  });
  return encode(c);
}

TEST(P2StateLayout, HostileCellDeltasFault) {
  const std::vector<std::uint8_t> one = {1};
  cdr::IngestReport report;
  ASSERT_TRUE(decode(two_cells(1, one), {}, report).has_value());

  expect_fault(two_cells(0, one), cdr::FaultClass::kCheckpointMismatch,
               "repeated cell");
  // 0xFFFFFFF0 + 16 = 2^32.
  expect_fault(two_cells(0x10, one), cdr::FaultClass::kCheckpointMismatch,
               "cell past 2^32");
}

TEST(P2StateLayout, OverlongVarintFaults) {
  // The largest u64 is a ten-byte varint ending in 0x01; make its last byte
  // continue past 64 bits.
  std::vector<std::uint8_t> widest(9, 0xFF);
  widest.push_back(0x01);
  cdr::IngestReport report;
  ASSERT_TRUE(decode(two_cells(1, widest), {}, report).has_value());

  std::vector<std::uint8_t> overlong = widest;
  overlong.back() = 0x81;
  expect_fault(two_cells(1, overlong), cdr::FaultClass::kTruncatedPayload,
               "eleven-byte varint");
}

}  // namespace
}  // namespace ccms::stream
