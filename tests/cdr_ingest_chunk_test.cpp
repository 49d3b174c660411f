// Chunked-ingest seam behaviour: with a tiny chunk granularity every row
// lands near a chunk boundary, so these tests pin down the cases the
// parallel reader must stitch exactly like the sequential one — faults
// straddling a split point, CRLF/BOM at boundaries, duplicates and
// out-of-order records across seams, strict first-fault offsets in later
// chunks, the quarantine cap and metadata lines in non-first chunks.
// Every assertion is "parallel result == sequential result", bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdr/io.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::cdr {
namespace {

IngestOptions lenient_chunked(int threads, std::size_t chunk_bytes = 8) {
  IngestOptions options;
  options.mode = ParseMode::kLenient;
  options.threads = threads;
  options.chunk_bytes = chunk_bytes;
  return options;
}

/// Reads `text` leniently at width 1 and at widths {2, 4, 8} with a tiny
/// chunk size, asserting dataset bytes and full report equality.
void expect_chunk_parity(const std::string& text,
                         std::size_t chunk_bytes = 8) {
  IngestReport golden_report;
  const Dataset golden = read_csv_text(text, lenient_chunked(1, chunk_bytes),
                                       golden_report, "unit");
  const std::string golden_bytes = write_binary_buffer(golden);
  for (const int width : {2, 4, 8}) {
    IngestReport report;
    const Dataset loaded = read_csv_text(
        text, lenient_chunked(width, chunk_bytes), report, "unit");
    EXPECT_EQ(write_binary_buffer(loaded), golden_bytes) << "width=" << width;
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

TEST(IngestChunkTest, FaultStraddlingChunkSplitStaysWhole) {
  // The bad row is long enough that an 8-byte granularity puts nominal
  // split points inside it; newline alignment must keep it in one chunk and
  // quarantine it once, at its sequential byte offset.
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,thisfieldisnotanumberatall_and_quite_long_indeed,50\n"
      "1,2,200,60\n"
      "2,3,300,70\n";
  expect_chunk_parity(text);
}

TEST(IngestChunkTest, CrlfAndBomAtChunkBoundaries) {
  std::string text =
      "\xEF\xBB\xBF"
      "car,cell,start_s,duration_s\r\n";
  for (int i = 0; i < 24; ++i) {
    text += std::to_string(i / 4) + ",2," + std::to_string(100 + i * 10) +
            ",5\r\n";
  }
  text += "\r\n\n";  // trailing blank lines
  expect_chunk_parity(text);
  // BOM is only a BOM at offset 0: a chunk starting mid-file must not strip
  // record bytes. (With 3-byte granularity the second chunk can start right
  // at a row whose first bytes could alias a BOM check.)
  expect_chunk_parity(text, 3);
}

TEST(IngestChunkTest, DuplicateRecordAcrossSeam) {
  // Rows sized so the duplicate is the first row of a later chunk for small
  // granularities; the seam check must drop it and count it repaired
  // exactly as the sequential pass does.
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,100,50\n"
      "1,2,200,60\n"
      "1,2,200,60\n"
      "2,3,300,70\n";
  expect_chunk_parity(text);
  expect_chunk_parity(text, 2);
}

TEST(IngestChunkTest, OutOfOrderRecordAcrossSeam) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,500,50\n"
      "1,2,100,60\n"  // sorts before its predecessor
      "2,3,300,70\n"
      "1,9,100,10\n"  // and again across a later seam
      "3,3,400,70\n";
  expect_chunk_parity(text);
  expect_chunk_parity(text, 2);
}

TEST(IngestChunkTest, StrictFirstFaultInSecondChunkKeepsSequentialOffset) {
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,200,60\n"
      "1,2,250,70\n"
      "1,2,260,80\n"
      "1,2,bad,90\n"  // first fault, deep into the file
      "1,2,999,10\n"
      "1,2,zzz,10\n";  // later fault must not win
  IngestOptions strict;
  strict.threads = 1;
  strict.chunk_bytes = 8;
  std::string golden_message;
  IngestReport golden_report;
  try {
    (void)read_csv_text(text, strict, golden_report, "unit");
    FAIL() << "expected CsvError";
  } catch (const util::CsvError& e) {
    golden_message = e.what();
  }
  EXPECT_NE(golden_message.find("byte offset"), std::string::npos);

  for (const int width : {2, 4, 8}) {
    IngestOptions options = strict;
    options.threads = width;
    IngestReport report;
    try {
      (void)read_csv_text(text, options, report, "unit");
      FAIL() << "expected CsvError at width " << width;
    } catch (const util::CsvError& e) {
      EXPECT_EQ(std::string(e.what()), golden_message) << "width=" << width;
    }
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

TEST(IngestChunkTest, StrictSeamFaultReportsSeamOffset) {
  // The duplicate is legal within its own chunk (it is the chunk's first
  // row); only the seam check can see it. Strict mode must still throw with
  // the duplicate row's byte offset, exactly like the sequential pass.
  const std::string text =
      "car,cell,start_s,duration_s\n"
      "1,2,100,50\n"
      "1,2,100,50\n"
      "1,2,200,60\n";
  IngestOptions strict;
  strict.threads = 1;
  strict.chunk_bytes = 2;
  std::string golden_message;
  IngestReport golden_report;
  try {
    (void)read_csv_text(text, strict, golden_report, "unit");
    FAIL() << "expected CsvError";
  } catch (const util::CsvError& e) {
    golden_message = e.what();
  }

  for (const int width : {2, 4, 8}) {
    IngestOptions options = strict;
    options.threads = width;
    IngestReport report;
    try {
      (void)read_csv_text(text, options, report, "unit");
      FAIL() << "expected CsvError at width " << width;
    } catch (const util::CsvError& e) {
      EXPECT_EQ(std::string(e.what()), golden_message) << "width=" << width;
    }
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

TEST(IngestChunkTest, QuarantineCapAppliesGloballyAcrossChunks) {
  // 12 faults, cap 5: the retained entries must be the *first five by byte
  // offset* no matter which chunk found them, and the overflow count the
  // remaining seven.
  std::string text = "car,cell,start_s,duration_s\n";
  for (int i = 0; i < 12; ++i) {
    text += "1,2,bad" + std::to_string(i) + ",50\n";
    text += "1,2," + std::to_string(1000 + i * 10) + ",5\n";
  }
  IngestReport golden_report;
  IngestOptions options = lenient_chunked(1);
  options.quarantine_cap = 5;
  const Dataset golden = read_csv_text(text, options, golden_report, "unit");
  EXPECT_EQ(golden_report.quarantine.size(), 5u);
  EXPECT_EQ(golden_report.quarantine_overflow, 7u);

  const std::string golden_bytes = write_binary_buffer(golden);
  for (const int width : {2, 4, 8}) {
    options.threads = width;
    IngestReport report;
    const Dataset loaded = read_csv_text(text, options, report, "unit");
    EXPECT_EQ(write_binary_buffer(loaded), golden_bytes) << "width=" << width;
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

TEST(IngestChunkTest, MetadataCommentInLaterChunkStillApplies) {
  // The metadata comment sits deep enough in the file that a later chunk
  // parses it; the merged dataset must still carry fleet size / study days.
  std::string text = "car,cell,start_s,duration_s\n";
  for (int i = 0; i < 10; ++i) {
    text += "1,2," + std::to_string(100 + i * 10) + ",5\n";
  }
  text += "#fleet_size=40,study_days=30\n";
  for (int i = 0; i < 10; ++i) {
    text += "2,3," + std::to_string(100 + i * 10) + ",5\n";
  }
  IngestReport report;
  const Dataset loaded =
      read_csv_text(text, lenient_chunked(4), report, "unit");
  EXPECT_EQ(loaded.fleet_size(), 40u);
  EXPECT_EQ(loaded.study_days(), 30);
  expect_chunk_parity(text);
}

TEST(IngestChunkTest, BinaryChunkedIngestMatchesSequential) {
  // Value screening (horizon) quarantines a subset of records; chunked
  // binary ingest must produce the same dataset and report at every width.
  std::vector<Connection> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(
        test::conn(static_cast<std::uint32_t>(i / 8), 2,
                   static_cast<time::Seconds>(i * 500), 20));
  }
  const std::string bytes =
      write_binary_buffer(test::make_dataset(records, 40, 2));

  IngestOptions options;
  options.mode = ParseMode::kLenient;
  options.horizon_s = 40'000;  // records past ~day 0.5 become clock skew
  options.chunk_bytes = 8;     // many record-aligned chunks
  options.threads = 1;
  IngestReport golden_report;
  const Dataset golden =
      read_binary_buffer(bytes, options, golden_report, "unit");
  EXPECT_GT(golden_report.count(FaultClass::kClockSkew), 0u);
  const std::string golden_out = write_binary_buffer(golden);

  for (const int width : {2, 4, 8}) {
    options.threads = width;
    IngestReport report;
    const Dataset loaded = read_binary_buffer(bytes, options, report, "unit");
    EXPECT_EQ(write_binary_buffer(loaded), golden_out) << "width=" << width;
    EXPECT_EQ(report, golden_report) << "width=" << width;
  }
}

TEST(IngestChunkTest, StrictBinaryTruncatedPayloadParity) {
  std::vector<Connection> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(test::conn(1, 2, static_cast<time::Seconds>(i * 100), 5));
  }
  std::string bytes = write_binary_buffer(test::make_dataset(records, 4, 1));
  bytes.resize(bytes.size() - 7);  // chop mid-record

  IngestOptions options;
  options.threads = 1;
  options.chunk_bytes = 8;
  std::string golden_message;
  try {
    IngestReport report;
    (void)read_binary_buffer(bytes, options, report, "unit");
    FAIL() << "expected CsvError";
  } catch (const util::CsvError& e) {
    golden_message = e.what();
  }
  for (const int width : {2, 8}) {
    options.threads = width;
    IngestReport report;
    try {
      (void)read_binary_buffer(bytes, options, report, "unit");
      FAIL() << "expected CsvError at width " << width;
    } catch (const util::CsvError& e) {
      EXPECT_EQ(std::string(e.what()), golden_message) << "width=" << width;
    }
  }
}

}  // namespace
}  // namespace ccms::cdr
