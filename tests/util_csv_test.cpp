#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace ccms::util {
namespace {

TEST(CsvSplitTest, SimpleFields) {
  const auto fields = split_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvSplitTest, EmptyFields) {
  const auto fields = split_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvSplitTest, SingleField) {
  const auto fields = split_csv_line("hello");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(CsvSplitTest, QuotedComma) {
  const auto fields = split_csv_line("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "c");
}

TEST(CsvSplitTest, EscapedQuote) {
  const auto fields = split_csv_line("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvSplitTest, ToleratesCarriageReturn) {
  const auto fields = split_csv_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvSplitTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(split_csv_line("\"oops,b"), CsvError);
}

TEST(CsvEscapeTest, PlainPassthrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscapeTest, QuotesCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, DoublesQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, RoundTripThroughSplit) {
  const std::string nasty = "a,\"b\",c\nd";
  const auto fields = split_csv_line(csv_escape(nasty) + ",x");
  ASSERT_GE(fields.size(), 1u);
  EXPECT_EQ(fields[0], nasty);
}

class CsvFileTest : public ::testing::Test {
 protected:
  // Per-test file: ctest runs this binary's cases in parallel processes.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "_ccms_csv_test.csv"))
          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvFileTest, WriteThenReadRoundTrip) {
  {
    CsvWriter writer(path_);
    writer.write_row({"car", "cell"});
    writer.write_row({"1", "2"});
    writer.write_row({"has,comma", "has\"quote"});
    writer.close();
  }
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row[0], "car");
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row[1], "2");
  ASSERT_TRUE(reader.read_row(row));
  EXPECT_EQ(row[0], "has,comma");
  EXPECT_EQ(row[1], "has\"quote");
  EXPECT_FALSE(reader.read_row(row));
}

TEST_F(CsvFileTest, OpenMissingFileThrows) {
  EXPECT_THROW(CsvReader("/nonexistent/dir/file.csv"), CsvError);
}

TEST_F(CsvFileTest, WriteToBadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), CsvError);
}

TEST(CsvParseTest, ParseI64Valid) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64("7776000"), 7776000);
}

TEST(CsvParseTest, ParseI64Invalid) {
  EXPECT_THROW((void)parse_i64(""), CsvError);
  EXPECT_THROW((void)parse_i64("abc"), CsvError);
  EXPECT_THROW((void)parse_i64("12x"), CsvError);
  EXPECT_THROW((void)parse_i64("1.5"), CsvError);
}

TEST(CsvParseTest, ParseF64Valid) {
  EXPECT_DOUBLE_EQ(parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_f64("-2"), -2.0);
  EXPECT_DOUBLE_EQ(parse_f64("1e3"), 1000.0);
}

TEST(CsvParseTest, ParseF64Invalid) {
  EXPECT_THROW((void)parse_f64(""), CsvError);
  EXPECT_THROW((void)parse_f64("x"), CsvError);
  EXPECT_THROW((void)parse_f64("1.5junk"), CsvError);
}

}  // namespace
}  // namespace ccms::util
