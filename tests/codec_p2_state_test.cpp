// The CCKP image stores P2 quantile states in a compact layout (DESIGN.md
// §11): canonical fields are rebuilt on read, everything else travels as
// raw f64. These tests drive real estimators through dirty inputs, round-trip
// their states through encode/decode and require every field back bit for
// bit, and a restored estimator to keep producing the original's estimates.
// They also feed decode hostile per-cell entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cdr/integrity.h"
#include "stats/p2_quantile.h"
#include "stream/checkpoint.h"
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

/// A one-shard checkpoint carrying `state` as the producer's duration
/// estimator and as one per-cell entry.
Checkpoint holding(const P2Quantile::State& state) {
  Checkpoint c;
  c.producer.durations.p2 = state;
  c.shards.resize(1);
  c.shards[0].cell_durations.push_back({7, 12345, state});
  return c;
}

Checkpoint round_trip(const Checkpoint& c) {
  cdr::IngestReport report;
  auto decoded = decode(encode(c), {}, report);
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(Checkpoint{});
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
    ASSERT_EQ(decoded.shards.size(), 1u) << c.label();
    ASSERT_EQ(decoded.shards[0].cell_durations.size(), 1u) << c.label();
    const auto& entry = decoded.shards[0].cell_durations[0];
    EXPECT_EQ(entry.cell, 7u);
    EXPECT_EQ(entry.connections, 12345u);
    expect_same_bits(entry.median, state, c.label() + " cell");
    expect_same_bits(decoded.producer.durations.p2, state,
                     c.label() + " producer");

    P2Quantile restored(0.5);
    restored.restore(entry.median);
    for (int i = 0; i < 10000; ++i) {
      const double x = observation(rng, c.kind);
      original.add(x);
      restored.add(x);
    }
    EXPECT_EQ(bits(restored.value()), bits(original.value())) << c.label();
    expect_same_bits(restored.state(), original.state(),
                     c.label() + " continued");
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
  expect_same_bits(round_trip(holding(odd)).shards[0].cell_durations[0].median,
                   odd, "odd");

  P2Quantile::State markers = odd;
  markers.count = 9;
  markers.heights = {1, 2, 3, 4, 5};
  markers.positions = {1, 2, 3.5, 4, 9};  // one fractional position
  expect_same_bits(
      round_trip(holding(markers)).shards[0].cell_durations[0].median,
      markers, "fractional position");
}

/// Bytes one per-cell entry adds to the image.
std::size_t entry_bytes(const P2Quantile::State& state) {
  Checkpoint one = holding(state);
  Checkpoint two = one;
  two.shards[0].cell_durations.push_back({8, 12345, state});
  return encode(two).size() - encode(one).size();
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

/// Recomputes every section CRC after a payload byte was patched, so the
/// damage reaches the field decoders instead of the checksum.
void reseal(std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 8;
  while (pos < bytes.size()) {
    std::uint64_t len = 0;
    binio::Reader(std::span(bytes).subspan(pos + 4, 8)).u64(len);
    const std::size_t end = pos + 12 + static_cast<std::size_t>(len);
    const std::uint32_t crc =
        binio::crc32(std::span(bytes).subspan(pos + 12, end - pos - 12));
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[end + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    pos = end + 4;
  }
}

/// The first byte at which two equal-length images differ.
std::size_t first_difference(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
}

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

Checkpoint two_cells(std::uint32_t second, std::uint64_t connections) {
  Checkpoint c = holding(P2Quantile(0.5).state());
  auto& cells = c.shards[0].cell_durations;
  cells[0].cell = 0xFFFFFFF0u;
  cells.push_back({second, connections, P2Quantile(0.5).state()});
  return c;
}

TEST(P2StateLayout, HostileCellDeltasFault) {
  // The second entry's id is one byte, its delta from 0xFFFFFFF0.
  const std::vector<std::uint8_t> image = encode(two_cells(0xFFFFFFF1u, 1));
  const std::size_t at =
      first_difference(image, encode(two_cells(0xFFFFFFF2u, 1)));
  ASSERT_LT(at, image.size());
  ASSERT_EQ(image[at], 1u);

  std::vector<std::uint8_t> repeated = image;
  repeated[at] = 0;  // the same cell twice
  reseal(repeated);
  expect_fault(repeated, cdr::FaultClass::kCheckpointMismatch,
               "repeated cell");

  std::vector<std::uint8_t> wrapped = image;
  wrapped[at] = 0x10;  // 0xFFFFFFF0 + 16 = 2^32
  reseal(wrapped);
  expect_fault(wrapped, cdr::FaultClass::kCheckpointMismatch,
               "cell past 2^32");
}

TEST(P2StateLayout, OverlongVarintFaults) {
  // The second entry's connections are a full ten-byte varint; make its last
  // byte continue past 64 bits.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint8_t> image =
      encode(two_cells(0xFFFFFFF1u, kMax));
  const std::size_t at =
      first_difference(image, encode(two_cells(0xFFFFFFF1u, kMax - 1)));
  ASSERT_LT(at + 9, image.size());
  ASSERT_EQ(image[at + 9], 0x01u);

  std::vector<std::uint8_t> overlong = image;
  overlong[at + 9] = 0x81;
  reseal(overlong);
  expect_fault(overlong, cdr::FaultClass::kTruncatedPayload,
               "eleven-byte varint");
}

}  // namespace
}  // namespace ccms::stream
