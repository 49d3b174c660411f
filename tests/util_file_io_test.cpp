// Whole-file read/write helper: byte-exact round trip (binary, embedded NUL,
// no trailing newline added), truncation on rewrite, and the soft/hard
// failure split its callers rely on.
#include "util/file_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/csv.h"

namespace ccms::util {
namespace {

TEST(FileIo, RoundTripsBytesExactlyAndTruncates) {
  const std::string path = testing::TempDir() + "/ccms_util_file_io_test.bin";
  const std::string bytes("a\0b\r\n\xff", 6);
  write_file(path, bytes);
  EXPECT_EQ(read_file(path), bytes);

  write_file(path, "x");
  EXPECT_EQ(read_file(path), "x");
  write_file(path, "");
  EXPECT_EQ(read_file(path), "");
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileIsNulloptAndUnwritablePathThrows) {
  EXPECT_EQ(read_file("/nonexistent/ccms/x.bin"), std::nullopt);
  EXPECT_THROW(write_file("/nonexistent/ccms/x.bin", "x"), CsvError);
}

}  // namespace
}  // namespace ccms::util
