// The batch fold's schedule: one pass over all chunks on the pool, each
// partial merged in ascending chunk order by whichever thread holds the
// merge as soon as every chunk before it has merged, with a chunk starting
// only while it is fewer than 2 x threads chunks past the last one merged.
// Whatever the width and however the chunk count sits against it (one
// chunk, fewer chunks than threads, just more, many times the window), the
// report must equal the width-1 report; a strict sweep must name the same
// corrupt block at every width and return, waking every chunk that waits on
// the window; and a Dataset whose chunk cut moves forward across a long car
// must fold to the same report.
#include "core/study.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cdr/columnar.h"
#include "net/load.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::core {
namespace {

constexpr int kWidths[] = {1, 2, 3, 8};

/// The fold cuts a CCDR2 file into chunks of this many blocks
/// (kBlocksPerChunk in core/study.cpp).
constexpr std::size_t kBlocksPerChunk = 4;

const sim::Study& fixture_study() {
  return test::cached_study(
      {.seed = 21, .fleet = 400, .days = 7, .grid = 8, .quick = true});
}

StudyOptions lenient_options() {
  StudyOptions options;
  options.ingest.mode = cdr::ParseMode::kLenient;
  // The dataset is already screened; natural exact duplicates made adjacent
  // by the finalize sort must survive the round trip.
  options.ingest.check_duplicates = false;
  return options;
}

/// CCDR2 bytes of the fixture's first `cars` cars that have records, one
/// car per block, so the file holds exactly `cars` blocks.
std::string one_car_per_block(std::size_t cars) {
  const cdr::Dataset& raw = fixture_study().raw;
  std::ostringstream out(std::ios::binary);
  cdr::ColumnarWriter writer(out, raw.fleet_size(), raw.study_days(),
                             /*block_records=*/1);
  std::size_t seen = 0;
  for (std::uint32_t car = 0; car < raw.fleet_size() && seen < cars; ++car) {
    const auto records = raw.of_car(CarId{car});
    if (records.empty()) continue;
    ++seen;
    for (const cdr::Connection& c : records) writer.add(c);
  }
  writer.finish();
  EXPECT_EQ(seen, cars) << "the fixture has too few cars with records";
  return out.str();
}

std::size_t cars_with_records() {
  const cdr::Dataset& raw = fixture_study().raw;
  std::size_t cars = 0;
  for (std::uint32_t car = 0; car < raw.fleet_size(); ++car) {
    cars += raw.of_car(CarId{car}).empty() ? 0 : 1;
  }
  return cars;
}

std::size_t blocks_of(const std::string& bytes) {
  cdr::IngestReport probe;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::from_buffer(bytes, lenient_options().ingest, probe);
  return file.blocks().size();
}

StudyReport sweep(const std::string& bytes, int width,
                  StudyOptions options = lenient_options()) {
  const sim::Study& study = fixture_study();
  const net::CellLoad load = net::CellLoad::from_background(study.background);
  options.threads = width;
  return run_study_columnar_buffer(bytes, study.topology.cells(), load,
                                   options);
}

TEST(FoldSchedule, EveryChunkCountMatchesWidthOne) {
  const std::size_t all_cars = cars_with_records();
  for (const int width : kWidths) {
    const auto w = static_cast<std::size_t>(width);
    // 1, W - 1, W + 1 and many times the 2W window of chunks; each count
    // but the last leaves its final chunk one block short.
    std::vector<std::size_t> chunk_counts = {1, w + 1};
    if (w > 1) chunk_counts.push_back(w - 1);
    for (const std::size_t chunks : chunk_counts) {
      const std::string bytes = one_car_per_block(chunks * kBlocksPerChunk - 1);
      ASSERT_EQ(blocks_of(bytes), chunks * kBlocksPerChunk - 1);
      const StudyReport golden = sweep(bytes, 1);
      const StudyReport report = sweep(bytes, width);
      std::string why;
      EXPECT_TRUE(study_reports_identical(golden, report, &why))
          << "width " << width << ", " << chunks << " chunks: " << why;
    }
    const std::string bytes = one_car_per_block(all_cars);
    ASSERT_GE(blocks_of(bytes), 4 * 2 * w * kBlocksPerChunk);
    const StudyReport golden = sweep(bytes, 1);
    const StudyReport report = sweep(bytes, width);
    std::string why;
    EXPECT_TRUE(study_reports_identical(golden, report, &why))
        << "width " << width << ", every car: " << why;
    EXPECT_GT(report.ingest.records_accepted, 0u);
  }
}

TEST(FoldSchedule, StrictSweepNamesTheSameCorruptBlockAtEveryWidth) {
  // A strict fault in the first, a middle or the last chunk. Every chunk
  // above the thrower that waits on the window must be woken, or the call
  // never returns (ctest's timeout catches that).
  const std::string clean = one_car_per_block(cars_with_records());
  const std::size_t blocks = blocks_of(clean);
  const std::size_t middle = (blocks / kBlocksPerChunk / 2) * kBlocksPerChunk + 1;
  StudyOptions options = lenient_options();
  options.ingest.mode = cdr::ParseMode::kStrict;
  for (const std::size_t bad : {std::size_t{0}, middle, blocks - 1}) {
    std::string bytes = clean;
    {
      cdr::IngestReport probe;
      const cdr::ColumnarFile file = cdr::ColumnarFile::from_buffer(
          bytes, lenient_options().ingest, probe);
      bytes[static_cast<std::size_t>(file.blocks()[bad].offset + 1)] ^= 0x20;
    }
    const std::string expected =
        "block " + std::to_string(bad) + " payload CRC32 does not match";
    for (const int width : kWidths) {
      std::string message;
      try {
        (void)sweep(bytes, width, options);
        ADD_FAILURE() << "block " << bad << ", width " << width
                      << ": no throw";
      } catch (const util::CsvError& e) {
        message = e.what();
      }
      EXPECT_EQ(message.rfind(expected, 0), 0u)
          << "block " << bad << ", width " << width << ": " << message;
    }
  }
}

TEST(FoldSchedule, StrictThrowWakesTheChunksWaitingOnTheWindow) {
  // Chunk 0 holds three long cars and then a corrupt block, the following
  // chunks one short car each: while chunk 0 folds, the other threads run
  // through the rest of the window and wait for it to merge. Its throw must
  // wake them, or the call never returns.
  const sim::Study& study = fixture_study();
  const cdr::Dataset& raw = study.raw;
  const auto cells = static_cast<std::uint32_t>(study.topology.cells().size());
  std::ostringstream out(std::ios::binary);
  cdr::ColumnarWriter writer(out, raw.fleet_size() + 3, raw.study_days(),
                             /*block_records=*/1);
  for (std::uint32_t car = 0; car < 3; ++car) {
    for (std::size_t i = 0; i < 100'000; ++i) {
      writer.add(test::conn(car, static_cast<std::uint32_t>((i * 7) % cells),
                            static_cast<time::Seconds>(i) * 5, 2));
    }
  }
  for (const cdr::Connection& c : raw.all()) {
    writer.add(test::conn(c.car.value + 3, c.cell.value, c.start,
                          c.duration_s));
  }
  writer.finish();
  std::string bytes = out.str();
  {
    cdr::IngestReport probe;
    const cdr::ColumnarFile file = cdr::ColumnarFile::from_buffer(
        bytes, lenient_options().ingest, probe);
    ASSERT_GT(file.blocks().size(), 4 * 2 * 8 * kBlocksPerChunk);
    bytes[static_cast<std::size_t>(file.blocks()[3].offset + 1)] ^= 0x20;
  }
  StudyOptions options = lenient_options();
  options.ingest.mode = cdr::ParseMode::kStrict;
  for (const int width : kWidths) {
    std::string message;
    try {
      (void)sweep(bytes, width, options);
      ADD_FAILURE() << "width " << width << ": no throw";
    } catch (const util::CsvError& e) {
      message = e.what();
    }
    EXPECT_EQ(message.rfind("block 3 payload CRC32 does not match", 0), 0u)
        << "width " << width << ": " << message;
  }
}

TEST(FoldSchedule, DatasetCutMovesForwardAcrossALongCar) {
  // A car with more records than three 2^16-record windows: the first
  // window's cut moves forward to its end and the next two windows are
  // empty, so empty partials merge between full ones.
  const sim::Study& study = fixture_study();
  const cdr::Dataset& raw = study.raw;
  constexpr std::uint32_t kLongCar = 40;
  constexpr std::size_t kLongRecords = 200'000;
  const auto cells = static_cast<std::uint32_t>(study.topology.cells().size());
  std::vector<cdr::Connection> records;
  for (const cdr::Connection& c : raw.all()) {
    if (c.car != CarId{kLongCar}) records.push_back(c);
  }
  for (std::size_t i = 0; i < kLongRecords; ++i) {
    records.push_back(test::conn(
        kLongCar, static_cast<std::uint32_t>((i * 7) % cells),
        static_cast<time::Seconds>(i) * 3, i % 97 == 0 ? 3600 : 2));
  }
  const cdr::Dataset dataset =
      test::make_dataset(records, raw.fleet_size(), raw.study_days());
  ASSERT_GT(dataset.of_car(CarId{kLongCar}).size(), 3u * (1u << 16));

  const net::CellLoad load = net::CellLoad::from_background(study.background);
  StudyOptions options = lenient_options();
  options.threads = 1;
  const StudyReport golden =
      run_study(dataset, study.topology.cells(), load, options);
  for (const int width : kWidths) {
    options.threads = width;
    const StudyReport report =
        run_study(dataset, study.topology.cells(), load, options);
    std::string why;
    EXPECT_TRUE(study_reports_identical(golden, report, &why))
        << "width " << width << ": " << why;
  }

  // The CCDR2 fold cuts the same records into other chunks; only its
  // ingest accounting may differ from the Dataset fold's.
  StudyReport swept = sweep(cdr::write_columnar_buffer(dataset), 8);
  EXPECT_EQ(swept.ingest.records_accepted, dataset.size());
  swept.ingest = golden.ingest;
  std::string why;
  EXPECT_TRUE(study_reports_identical(golden, swept, &why)) << why;
}

}  // namespace
}  // namespace ccms::core
