#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cdr/io.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ccms::faults {
namespace {

using cdr::FaultClass;
using test::conn;
using test::make_dataset;

cdr::Dataset sample() {
  return make_dataset(
      {
          conn(0, 1, 100, 50),
          conn(0, 2, 400, 80),
          conn(1, 1, 200, 30),
          conn(1, 3, 900, 120),
          conn(2, 0, 50, 10),
          conn(2, 2, 700, 60),
      },
      /*fleet_size=*/3, /*study_days=*/1);
}

FaultEnv sample_env() {
  FaultEnv env;
  env.horizon_s = 86400;
  env.cell_universe = 16;
  return env;
}

TEST(FaultInjectorTest, ZeroRatesAreIdentity) {
  const std::string csv = cdr::write_csv_text(sample());
  FaultInjector injector(42, sample_env());
  const auto out = injector.corrupt_csv(csv, CsvFaultRates{});
  EXPECT_EQ(out.text, csv);
  EXPECT_EQ(out.log.total(), 0u);
}

TEST(FaultInjectorTest, DeterministicForEqualSeeds) {
  const std::string csv = cdr::write_csv_text(sample());
  const CsvFaultRates rates = CsvFaultRates::uniform(0.5);
  FaultInjector a(7, sample_env());
  FaultInjector b(7, sample_env());
  const auto out_a = a.corrupt_csv(csv, rates);
  const auto out_b = b.corrupt_csv(csv, rates);
  EXPECT_EQ(out_a.text, out_b.text);
  ASSERT_EQ(out_a.log.total(), out_b.log.total());
  for (std::size_t i = 0; i < out_a.log.faults.size(); ++i) {
    EXPECT_EQ(out_a.log.faults[i].fault, out_b.log.faults[i].fault);
    EXPECT_EQ(out_a.log.faults[i].byte_offset,
              out_b.log.faults[i].byte_offset);
  }
}

TEST(FaultInjectorTest, UniformSplitsRateAcrossAllClasses) {
  const CsvFaultRates rates = CsvFaultRates::uniform(0.09);
  EXPECT_NEAR(rates.total(), 0.09, 1e-12);
  EXPECT_NEAR(rates.truncated_line, 0.01, 1e-12);
  EXPECT_NEAR(rates.unknown_cell, 0.01, 1e-12);
}

TEST(FaultInjectorTest, ByteOffsetsPointAtTheTaggedLine) {
  // With a single fault class at rate 1 every data row is mutated; each
  // logged offset must be the start of a row that fails to parse.
  const std::string csv = cdr::write_csv_text(sample());
  CsvFaultRates rates;
  rates.negative_duration = 1.0;
  FaultInjector injector(3, sample_env());
  const auto out = injector.corrupt_csv(csv, rates);
  ASSERT_EQ(out.log.count(FaultClass::kNegativeDuration), 6u);
  for (const InjectedFault& f : out.log.faults) {
    ASSERT_LT(f.byte_offset, out.text.size());
    const auto eol = out.text.find('\n', f.byte_offset);
    const std::string line =
        out.text.substr(f.byte_offset, eol - f.byte_offset);
    EXPECT_NE(line.find(",-"), std::string::npos) << line;
  }
}

TEST(FaultInjectorTest, BomAndCrlfChangeBytesNotTheLog) {
  const std::string csv = cdr::write_csv_text(sample());
  CsvFaultRates rates;
  rates.add_bom = true;
  rates.crlf = true;
  rates.trailing_blank_lines = 2;
  FaultInjector injector(5, sample_env());
  const auto out = injector.corrupt_csv(csv, rates);
  EXPECT_EQ(out.log.total(), 0u);
  EXPECT_EQ(out.text.substr(0, 3), "\xEF\xBB\xBF");
  EXPECT_NE(out.text.find("\r\n"), std::string::npos);
}

TEST(FaultInjectorTest, DatasetCorruptionTagsRecordLevelFaults) {
  CsvFaultRates rates;
  rates.hour_artifact = 1.0;
  FaultInjector injector(11, sample_env());
  const auto out = injector.corrupt_dataset(sample(), rates);
  EXPECT_EQ(out.log.count(FaultClass::kHourArtifact), 6u);
  for (const cdr::Connection& c : out.dataset.all()) {
    EXPECT_EQ(c.duration_s, 3600);
  }
}

std::vector<cdr::Connection> start_sorted_feed(int records,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cdr::Connection> feed;
  time::Seconds t = 0;
  for (int i = 0; i < records; ++i) {
    t += rng.uniform_int(0, 60);
    feed.push_back(conn(static_cast<std::uint32_t>(rng.uniform_int(0, 9)),
                        static_cast<std::uint32_t>(rng.uniform_int(0, 3)), t,
                        static_cast<std::int32_t>(rng.uniform_int(5, 400))));
  }
  return feed;
}

TEST(FaultInjectorTest, JitterFeedIsDeterministicPerSeed) {
  const std::vector<cdr::Connection> feed = start_sorted_feed(2000, 3);
  FaultInjector::FeedJitter jitter;
  jitter.max_delay = 120;
  jitter.late_rate = 0.02;
  jitter.allowed_lateness = 300;

  const auto a = FaultInjector(5).jitter_feed(feed, jitter);
  const auto b = FaultInjector(5).jitter_feed(feed, jitter);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  ASSERT_EQ(a.late.size(), b.late.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i], b.arrivals[i]) << "i=" << i;
  }
  for (std::size_t i = 0; i < a.late.size(); ++i) {
    EXPECT_EQ(a.late[i], b.late[i]) << "i=" << i;
  }

  const auto c = FaultInjector(6).jitter_feed(feed, jitter);
  bool same_order = a.arrivals.size() == c.arrivals.size();
  if (same_order) {
    same_order = std::equal(a.arrivals.begin(), a.arrivals.end(),
                            c.arrivals.begin());
  }
  EXPECT_FALSE(same_order) << "different seeds produced identical jitter";
}

TEST(FaultInjectorTest, JitterFeedPreservesRecordMultiset) {
  const std::vector<cdr::Connection> feed = start_sorted_feed(1500, 8);
  FaultInjector::FeedJitter jitter;
  jitter.late_rate = 0.05;
  FaultInjector injector(21);
  const auto out = injector.jitter_feed(feed, jitter);
  ASSERT_EQ(out.arrivals.size(), feed.size());  // jitter reorders, never drops

  std::multiset<cdr::Connection, cdr::ByCarThenStart> expect(feed.begin(),
                                                             feed.end());
  for (const cdr::Connection& c : out.arrivals) {
    const auto it = expect.find(c);
    ASSERT_NE(it, expect.end());
    expect.erase(it);
  }
  EXPECT_TRUE(expect.empty());
  // And every late record is a member of the feed.
  std::multiset<cdr::Connection, cdr::ByCarThenStart> all(feed.begin(),
                                                          feed.end());
  for (const cdr::Connection& c : out.late) {
    EXPECT_NE(all.find(c), all.end());
  }
}

}  // namespace
}  // namespace ccms::faults
