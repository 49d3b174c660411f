#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

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

TEST(CsvSplitTest, DropsCarriageReturnsMidFieldButKeepsThemInQuotes) {
  const auto fields = split_csv_line("a\rb,\"c\rd\"\r,\re");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "ab");
  EXPECT_EQ(fields[1], "c\rd");
  EXPECT_EQ(fields[2], "e");
}

TEST(CsvSplitTest, QuotesMayOpenAndCloseMidField) {
  const auto fields = split_csv_line("ab\"c,d\"e,\"\"");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "abc,de");
  EXPECT_EQ(fields[1], "");
}

TEST(CsvSplitTest, TrailingCommaAndEmptyLine) {
  EXPECT_EQ(split_csv_line("1,2,"), (std::vector<std::string>{"1", "2", ""}));
  EXPECT_EQ(split_csv_line(""), (std::vector<std::string>{""}));
}

TEST(CsvSplitTest, PlainFieldsAreViewsIntoTheLine) {
  const std::string line = "12,\"3\"\"4\",5\r6,78";
  std::vector<std::string_view> fields;
  std::string scratch = "left over";
  split_csv_fields(line, fields, scratch);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "12");
  EXPECT_EQ(fields[1], "3\"4");
  EXPECT_EQ(fields[2], "56");
  EXPECT_EQ(fields[3], "78");
  // Plain fields point into the line; only rewritten ones into scratch.
  EXPECT_EQ(fields[0].data(), line.data());
  EXPECT_EQ(fields[3].data(), line.data() + line.size() - 2);
  EXPECT_EQ(fields[1].data(), scratch.data());
  EXPECT_EQ(fields[2].data(), scratch.data() + 3);
  EXPECT_EQ(scratch, "3\"456");
  EXPECT_GE(scratch.capacity(), line.size());

  // The next call clears both outputs.
  split_csv_fields("x", fields, scratch);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "x");
  EXPECT_TRUE(scratch.empty());
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

/// parse_i64 follows strtoll's base-10 grammar; each case's value or error
/// text is the one the strtoll-based parser gave.
TEST(CsvParseTest, ParseI64GrammarMatchesStrtoll) {
  struct Case {
    std::string_view text;
    std::int64_t value;
    std::string_view error;  // empty when the text parses
  };
  const Case cases[] = {
      {"7", 7, ""},
      {" 7", 7, ""},
      {"\t7", 7, ""},
      {"\n\v\f\r7", 7, ""},
      {"+7", 7, ""},
      {"-0", 0, ""},
      {"007", 7, ""},
      {"7 ", 0, "bad integer field: 7 "},
      {"7\t", 0, "bad integer field: 7\t"},
      {"", 0, "empty integer field"},
      {" ", 0, "bad integer field:  "},
      {"-", 0, "bad integer field: -"},
      {"+-7", 0, "bad integer field: +-7"},
      {"--7", 0, "bad integer field: --7"},
      {"- 7", 0, "bad integer field: - 7"},
      {"0x1F", 0, "bad integer field: 0x1F"},
      {"1e3", 0, "bad integer field: 1e3"},
      {"9223372036854775807", INT64_MAX, ""},
      {"9223372036854775808", 0, "bad integer field: 9223372036854775808"},
      {"-9223372036854775808", INT64_MIN, ""},
      {"-9223372036854775809", 0, "bad integer field: -9223372036854775809"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.text));
    if (c.error.empty()) {
      EXPECT_EQ(parse_i64(c.text), c.value);
      continue;
    }
    try {
      (void)parse_i64(c.text);
      ADD_FAILURE() << "parsed";
    } catch (const CsvError& e) {
      EXPECT_EQ(std::string_view(e.what()), c.error);
    }
  }
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
