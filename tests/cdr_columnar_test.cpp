// CCDR2 columnar format: varint/zigzag codec boundaries, round-trip
// exactness, car-aligned blocking, and corruption through the §7
// Strict/Lenient + IngestReport discipline.
#include "cdr/columnar.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.h"
#include "util/binio.h"
#include "util/csv.h"

namespace ccms::cdr {
namespace {

using binio::get_uvarint;
using binio::put_uvarint;
using binio::unzigzag64;
using binio::zigzag64;
using test::conn;
using test::make_dataset;

std::uint64_t roundtrip_uvarint(std::uint64_t v, std::size_t* bytes = nullptr) {
  std::string buf;
  put_uvarint(buf, v);
  if (bytes != nullptr) *bytes = buf.size();
  const auto* p = reinterpret_cast<const std::uint8_t*>(buf.data());
  const std::uint8_t* end = p + buf.size();
  std::uint64_t out = 0;
  EXPECT_TRUE(get_uvarint(p, end, out)) << v;
  EXPECT_EQ(p, end) << "trailing bytes after decoding " << v;
  return out;
}

TEST(ColumnarCodec, UvarintExhaustiveBoundaries) {
  // Every 7-bit group boundary: 2^(7k) - 1 encodes in k bytes, 2^(7k) and
  // 2^(7k) + 1 in k+1.
  std::size_t bytes = 0;
  EXPECT_EQ(roundtrip_uvarint(0, &bytes), 0u);
  EXPECT_EQ(bytes, 1u);
  for (int shift = 7; shift < 64; shift += 7) {
    const std::uint64_t edge = std::uint64_t{1} << shift;
    const std::size_t below = static_cast<std::size_t>(shift / 7);
    EXPECT_EQ(roundtrip_uvarint(edge - 1, &bytes), edge - 1);
    EXPECT_EQ(bytes, below) << "2^" << shift << " - 1";
    EXPECT_EQ(roundtrip_uvarint(edge, &bytes), edge);
    EXPECT_EQ(bytes, below + 1) << "2^" << shift;
    EXPECT_EQ(roundtrip_uvarint(edge + 1, &bytes), edge + 1);
    EXPECT_EQ(bytes, below + 1) << "2^" << shift << " + 1";
  }
  EXPECT_EQ(roundtrip_uvarint(std::numeric_limits<std::uint64_t>::max(),
                              &bytes),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(bytes, 10u);
}

TEST(ColumnarCodec, UvarintRejectsTruncation) {
  std::string buf;
  put_uvarint(buf, std::uint64_t{1} << 42);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(buf.data());
    const std::uint8_t* end = p + cut;
    std::uint64_t out = 0;
    EXPECT_FALSE(get_uvarint(p, end, out)) << "prefix of " << cut << " bytes";
  }
}

TEST(ColumnarCodec, UvarintRejectsOverwideValue) {
  // 10 continuation bytes followed by a terminator encode > 64 bits.
  const std::string buf(10, '\x80');
  std::string wide = buf + '\x02';
  const auto* p = reinterpret_cast<const std::uint8_t*>(wide.data());
  const std::uint8_t* end = p + wide.size();
  std::uint64_t out = 0;
  EXPECT_FALSE(get_uvarint(p, end, out));
}

TEST(ColumnarCodec, ZigzagBoundaries) {
  const std::int64_t cases[] = {
      0,
      -1,
      1,
      -2,
      2,
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      (std::int64_t{1} << 62),
      -(std::int64_t{1} << 62),
  };
  for (const std::int64_t v : cases) {
    EXPECT_EQ(unzigzag64(zigzag64(v)), v) << v;
  }
  // Small magnitudes map to small codes (the point of zigzag).
  EXPECT_EQ(zigzag64(0), 0u);
  EXPECT_EQ(zigzag64(-1), 1u);
  EXPECT_EQ(zigzag64(1), 2u);
  EXPECT_EQ(zigzag64(-2), 3u);
}

Dataset negative_delta_dataset() {
  // Consecutive cars whose first start precedes the previous car's last
  // start: every car boundary is a negative start delta, the case the
  // zigzag-delta encoding exists for.
  std::vector<Connection> records;
  for (std::uint32_t car = 0; car < 12; ++car) {
    const time::Seconds base = static_cast<time::Seconds>((12 - car)) * 10000;
    for (int k = 0; k < 5; ++k) {
      records.push_back(conn(car, car % 3, base + k * 7, 60 + k));
    }
  }
  return make_dataset(std::move(records), /*fleet_size=*/12,
                      /*study_days=*/7);
}

void expect_equal(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.fleet_size(), b.fleet_size());
  EXPECT_EQ(a.study_days(), b.study_days());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.all()[i], b.all()[i]) << "record " << i;
  }
}

TEST(ColumnarRoundTrip, NegativeDeltaRunsExact) {
  const Dataset original = negative_delta_dataset();
  IngestReport report;
  const Dataset loaded =
      read_columnar_buffer(write_columnar_buffer(original), {}, report);
  expect_equal(original, loaded);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.rows_read, original.size());
  EXPECT_EQ(report.records_accepted, original.size());
}

TEST(ColumnarRoundTrip, BoundaryValuesExact) {
  const Dataset original = make_dataset(
      {
          conn(0, 0, 0, 1),
          conn(0, 0, 0, std::numeric_limits<std::int32_t>::max()),
          conn(0, 1, 86399, 3600),
          conn(1, 0, 90 * 86400 - 1, 1),
          conn(1048575u, 7, 5, 42),  // large car delta at the boundary
      },
      /*fleet_size=*/0, /*study_days=*/90);
  IngestReport report;
  const Dataset loaded =
      read_columnar_buffer(write_columnar_buffer(original), {}, report);
  expect_equal(original, loaded);
  EXPECT_TRUE(report.clean());
}

TEST(ColumnarRoundTrip, FileRoundTripExact) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccms_columnar_rt.ccdr2")
          .string();
  const Dataset original = negative_delta_dataset();
  write_columnar(original, path);
  IngestReport report;
  const Dataset loaded = read_columnar(path, {}, report);
  std::remove(path.c_str());
  expect_equal(original, loaded);
  EXPECT_TRUE(report.clean());
}

TEST(ColumnarRoundTrip, EmptyDataset) {
  Dataset empty;
  empty.finalize();
  IngestReport report;
  const Dataset loaded =
      read_columnar_buffer(write_columnar_buffer(empty), {}, report);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_TRUE(report.clean());
}

TEST(ColumnarWriterTest, BlocksAreCarAligned) {
  // Tiny block target: car 2 has more records than the target, so its block
  // grows past it rather than splitting the car.
  std::ostringstream out(std::ios::binary);
  ColumnarWriter writer(out, /*fleet_size=*/8, /*study_days=*/7,
                        /*block_records=*/4);
  std::vector<Connection> records;
  for (std::uint32_t car = 0; car < 6; ++car) {
    const int n = car == 2 ? 9 : 3;
    for (int k = 0; k < n; ++k) {
      records.push_back(conn(car, 1, 100 * car + k, 30));
    }
  }
  for (const Connection& c : records) writer.add(c);
  EXPECT_EQ(writer.finish(), records.size());

  const std::string bytes = out.str();
  IngestReport report;
  const ColumnarFile file = ColumnarFile::from_buffer(bytes, {}, report);
  ASSERT_GE(file.blocks().size(), 2u);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < file.blocks().size(); ++b) {
    const ColumnarBlockDesc& desc = file.blocks()[b];
    total += desc.records;
    EXPECT_LE(desc.first_car, desc.last_car);
    if (b > 0) {
      // Car-aligned: a car never straddles two blocks.
      EXPECT_LT(file.blocks()[b - 1].last_car, desc.first_car);
    }
  }
  EXPECT_EQ(total, records.size());

  const Dataset loaded = read_columnar_buffer(bytes, {}, report);
  expect_equal(make_dataset(std::move(records), 8, 7), loaded);
}

TEST(ColumnarWriterTest, RejectsUnsortedInput) {
  std::ostringstream out(std::ios::binary);
  ColumnarWriter writer(out, 4, 7);
  writer.add(conn(1, 0, 100, 10));
  EXPECT_THROW(writer.add(conn(0, 0, 50, 10)), util::CsvError);
}

/// Multi-block buffer fixture for the corruption tests: block 0 can be
/// damaged while later blocks stay decodable.
std::string multi_block_buffer(std::size_t* first_block_records = nullptr) {
  std::ostringstream out(std::ios::binary);
  ColumnarWriter writer(out, /*fleet_size=*/20, /*study_days=*/7,
                        /*block_records=*/8);
  for (std::uint32_t car = 0; car < 20; ++car) {
    for (int k = 0; k < 4; ++k) {
      writer.add(conn(car, car % 5, 1000 * car + k * 11, 25 + k));
    }
  }
  writer.finish();
  const std::string bytes = out.str();
  if (first_block_records != nullptr) {
    IngestReport report;
    const ColumnarFile file = ColumnarFile::from_buffer(bytes, {}, report);
    *first_block_records = file.blocks().front().records;
  }
  return bytes;
}

TEST(ColumnarCorruption, BadMagicStrictThrowsLenientCounts) {
  std::string bytes = multi_block_buffer();
  bytes[0] = 'X';

  IngestReport strict_report;
  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  EXPECT_THROW(read_columnar_buffer(bytes, strict, strict_report),
               util::CsvError);

  IngestOptions lenient;
  lenient.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset survivors = read_columnar_buffer(bytes, lenient, report);
  EXPECT_EQ(survivors.size(), 0u);
  EXPECT_EQ(report.count(FaultClass::kBadHeader), 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_NE(report.quarantine[0].reason.find("magic"), std::string::npos);
}

// Ingest-safety cases every binary reader must meet, in the IngestTest
// suite beside the CSV reader's (cdr_ingest_test.cpp): a stub or a hostile
// count in the header is a clean fault, never UB or a giant allocation.

IngestOptions lenient_options() {
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  return options;
}

TEST(IngestTest, BinaryShorterThanHeaderIsACleanError) {
  // A valid magic followed by less than the 40-byte header.
  const std::string bytes = write_columnar_buffer(negative_delta_dataset());
  const std::string stub = bytes.substr(0, 20);
  IngestReport report;
  const Dataset loaded = read_columnar_buffer(stub, lenient_options(), report);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(report.count(FaultClass::kBadHeader), 1u);
  EXPECT_EQ(report.total_faults(), 1u);

  IngestReport strict_report;
  EXPECT_THROW((void)read_columnar_buffer(stub, {}, strict_report),
               util::CsvError);
}

TEST(IngestTest, HostileRecordCountCannotForceAHugeAllocation) {
  // Header fields: u64 record_count at byte 8, u32 block_count at byte 24.
  // Either claim is checked against the bytes present before anything is
  // sized from it.
  const Dataset original = negative_delta_dataset();
  const std::string good = write_columnar_buffer(original);

  std::string huge_records = good;
  const std::uint64_t huge = 1000000000000000000ULL;
  std::memcpy(huge_records.data() + 8, &huge, sizeof huge);
  IngestReport report;
  const Dataset loaded =
      read_columnar_buffer(huge_records, lenient_options(), report);
  EXPECT_EQ(loaded.size(), original.size());  // the index still holds them
  EXPECT_EQ(report.count(FaultClass::kTruncatedPayload), 1u);
  EXPECT_EQ(report.total_faults(), 1u);
  IngestReport strict_report;
  try {
    (void)read_columnar_buffer(huge_records, {}, strict_report);
    FAIL() << "strict ingest must reject the hostile header";
  } catch (const util::CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("index holds 60"), std::string::npos)
        << e.what();
  }

  std::string huge_blocks = good;
  const std::uint32_t blocks = 0xFFFFFFFFu;
  std::memcpy(huge_blocks.data() + 24, &blocks, sizeof blocks);
  IngestReport blocks_report;
  const Dataset none =
      read_columnar_buffer(huge_blocks, lenient_options(), blocks_report);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(blocks_report.count(FaultClass::kTruncatedPayload), 1u);
  EXPECT_EQ(blocks_report.total_faults(), 1u);
}

TEST(ColumnarCorruption, HostileBlockRecordCountIsDroppedBeforeDecode) {
  // A descriptor claiming 2^32 - 1 records behind a re-signed index: the
  // block cannot hold them (every column spends >= 1 byte per record), so
  // it is dropped as structural damage instead of sizing a decode buffer.
  std::string bytes = multi_block_buffer();
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + 32, sizeof index_offset);
  const std::size_t index_bytes =
      bytes.size() - static_cast<std::size_t>(index_offset) - 4;
  const std::size_t records_at =
      static_cast<std::size_t>(index_offset) +
      offsetof(ColumnarBlockDesc, records);
  const std::uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + records_at, &hostile, sizeof hostile);
  const std::uint32_t crc = binio::crc32(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()) + index_offset,
       index_bytes});
  std::memcpy(bytes.data() + index_offset + index_bytes, &crc, sizeof crc);

  IngestReport report;
  const Dataset survivors =
      read_columnar_buffer(bytes, lenient_options(), report);
  EXPECT_EQ(report.count(FaultClass::kTruncatedPayload), 1u);
  EXPECT_EQ(report.total_faults(), 1u);
  EXPECT_GT(survivors.size(), 0u);
  EXPECT_LT(survivors.size(), 80u);
  EXPECT_LT(report.rows_read, 80u);  // the hostile count never enters it

  IngestReport strict_report;
  EXPECT_THROW((void)read_columnar_buffer(bytes, {}, strict_report),
               util::CsvError);
}

TEST(ColumnarCorruption, TruncatedFileStrictThrowsLenientDegrades) {
  const std::string bytes = multi_block_buffer();
  // Chop mid-index: the header's index_offset points past the end.
  const std::string chopped = bytes.substr(0, bytes.size() - 48);

  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  IngestReport strict_report;
  EXPECT_THROW(read_columnar_buffer(chopped, strict, strict_report),
               util::CsvError);

  IngestOptions lenient;
  lenient.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset survivors = read_columnar_buffer(chopped, lenient, report);
  EXPECT_GT(report.total_faults(), 0u);
  EXPECT_LE(survivors.size(), 80u);
  // Partition invariant: every row seen is accepted, dropped or deduped.
  EXPECT_EQ(report.rows_read,
            report.records_accepted + report.records_dropped +
                report.count(FaultClass::kDuplicateRecord));
}

TEST(ColumnarCorruption, PayloadBitFlipDropsExactlyThatBlock) {
  std::size_t first_block_records = 0;
  std::string bytes = multi_block_buffer(&first_block_records);
  // Header is 40 bytes; byte 45 sits inside block 0's payload.
  bytes[45] = static_cast<char>(bytes[45] ^ 0x40);

  IngestOptions strict;
  strict.mode = ParseMode::kStrict;
  IngestReport strict_report;
  EXPECT_THROW(read_columnar_buffer(bytes, strict, strict_report),
               util::CsvError);

  IngestOptions lenient;
  lenient.mode = ParseMode::kLenient;
  IngestReport report;
  const Dataset survivors = read_columnar_buffer(bytes, lenient, report);
  EXPECT_EQ(report.count(FaultClass::kChecksumMismatch), 1u);
  EXPECT_EQ(report.records_dropped, first_block_records);
  EXPECT_EQ(survivors.size(), 80u - first_block_records);
  EXPECT_EQ(report.rows_read, 80u);
  EXPECT_EQ(report.rows_read,
            report.records_accepted + report.records_dropped +
                report.count(FaultClass::kDuplicateRecord));
  ASSERT_FALSE(report.quarantine.empty());
  EXPECT_EQ(report.quarantine.front().fault, FaultClass::kChecksumMismatch);
}

TEST(ColumnarCorruption, QuarantineCapBoundsRetention) {
  // Flip a payload byte in several blocks with a cap of 1: retention stays
  // bounded, entries + overflow still equals total faults.
  std::string bytes = multi_block_buffer();
  IngestReport probe_report;
  std::vector<std::uint64_t> offsets;
  {
    const ColumnarFile file = ColumnarFile::from_buffer(bytes, {},
                                                        probe_report);
    for (const ColumnarBlockDesc& desc : file.blocks()) {
      offsets.push_back(desc.offset + 2);
    }
  }
  ASSERT_GE(offsets.size(), 3u);
  for (const std::uint64_t off : offsets) {
    bytes[static_cast<std::size_t>(off)] ^= 0x20;
  }

  IngestOptions lenient;
  lenient.mode = ParseMode::kLenient;
  lenient.quarantine_cap = 1;
  IngestReport report;
  const Dataset survivors = read_columnar_buffer(bytes, lenient, report);
  EXPECT_EQ(survivors.size(), 0u);
  EXPECT_EQ(report.count(FaultClass::kChecksumMismatch), offsets.size());
  EXPECT_LE(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine.size() + report.quarantine_overflow,
            report.total_faults());
}

TEST(ColumnarScreening, ValueChecksFollowIngestDiscipline) {
  // A sorted file can still carry value-faulty records (negative duration,
  // clock skew, unknown cell, exact duplicates); the reader screens them
  // exactly like the CSV readers.
  const Dataset original = make_dataset(
      {
          conn(0, 1, 10, -5),         // negative duration
          conn(0, 1, 50, 60),         // ok
          conn(0, 1, 50, 60),         // exact duplicate (deduped)
          conn(1, 9, 100, 60),        // unknown cell under cell_universe=5
          conn(2, 1, 100 * 86400, 60) // clock skew under horizon
      },
      /*fleet_size=*/4, /*study_days=*/7);
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  options.horizon_s = 7 * 86400;
  options.cell_universe = 5;
  IngestReport report;
  const Dataset survivors =
      read_columnar_buffer(write_columnar_buffer(original), options, report);
  EXPECT_EQ(survivors.size(), 1u);
  EXPECT_EQ(report.count(FaultClass::kNegativeDuration), 1u);
  EXPECT_EQ(report.count(FaultClass::kDuplicateRecord), 1u);
  EXPECT_EQ(report.count(FaultClass::kUnknownCell), 1u);
  EXPECT_EQ(report.count(FaultClass::kClockSkew), 1u);
  EXPECT_EQ(report.rows_read,
            report.records_accepted + report.records_dropped +
                report.count(FaultClass::kDuplicateRecord));
}

}  // namespace
}  // namespace ccms::cdr
