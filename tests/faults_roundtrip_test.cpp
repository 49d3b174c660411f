// The tentpole acceptance test: inject every fault class into a generated
// study; lenient ingest must never throw and its IngestReport counters must
// exactly match the injected fault counts; strict mode must throw with the
// byte offset of the first fault; the §3 clean stage must account for the
// injected exactly-1-hour artifacts.
#include <gtest/gtest.h>

#include <string>

#include "cdr/clean.h"
#include "cdr/io.h"
#include "faults/fault_injector.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::faults {
namespace {

using cdr::FaultClass;

struct Fixture {
  cdr::Dataset base;
  std::string csv;
  FaultEnv env;
  cdr::IngestOptions lenient;
  cdr::IngestOptions strict;
};

/// A quirk-free simulated study, §3-cleaned and canonicalised (strictly
/// increasing (car, start), unique records) so every detectable fault in
/// the corrupted stream is one the injector put there.
Fixture make_fixture() {
  Fixture fx;
  const sim::SimConfig config = sim::SimConfig::pristine();
  const sim::Study study = sim::simulate(config);

  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned = cdr::clean(study.raw, {}, clean_report);

  fx.env.horizon_s = static_cast<std::int64_t>(config.study_days) * 86400;
  fx.env.cell_universe =
      static_cast<std::uint32_t>(study.topology.cells().size());

  fx.base.set_fleet_size(cleaned.fleet_size());
  fx.base.set_study_days(cleaned.study_days());
  bool have_prev = false;
  cdr::Connection prev{};
  for (const cdr::Connection& c : cleaned.all()) {
    if (c.start < 0 || c.start >= fx.env.horizon_s) continue;
    if (have_prev && c.car == prev.car && c.start == prev.start) continue;
    fx.base.add(c);
    prev = c;
    have_prev = true;
  }
  fx.base.finalize();
  fx.csv = cdr::write_csv_text(fx.base);

  fx.lenient.mode = cdr::ParseMode::kLenient;
  fx.lenient.horizon_s = fx.env.horizon_s;
  fx.lenient.cell_universe = fx.env.cell_universe;
  fx.lenient.max_duration_s = 7 * 86400;
  fx.lenient.quarantine_cap = 32;
  fx.strict = fx.lenient;
  fx.strict.mode = cdr::ParseMode::kStrict;
  return fx;
}

const Fixture& fixture() {
  static const Fixture fx = make_fixture();
  return fx;
}

CsvFaultRates every_class_rates() {
  CsvFaultRates rates;
  rates.truncated_line = 0.004;
  rates.garbage_field = 0.004;
  rates.duplicate_record = 0.004;
  rates.out_of_order = 0.004;
  rates.hour_artifact = 0.004;
  rates.clock_skew = 0.004;
  rates.negative_duration = 0.004;
  rates.overflow_duration = 0.004;
  rates.unknown_cell = 0.004;
  rates.add_bom = true;
  rates.crlf = true;
  rates.trailing_blank_lines = 3;
  return rates;
}

TEST(FaultRoundTrip, CanonicalBaseIngestsWithZeroFaults) {
  const Fixture& fx = fixture();
  ASSERT_GT(fx.base.size(), 10000u) << "base study suspiciously small";
  cdr::IngestReport report;
  const cdr::Dataset loaded =
      cdr::read_csv_text(fx.csv, fx.lenient, report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_accepted, fx.base.size());
  EXPECT_EQ(loaded.size(), fx.base.size());
}

TEST(FaultRoundTrip, LenientCountersMatchInjectedCountsExactly) {
  const Fixture& fx = fixture();
  FaultInjector injector(0xF00D, fx.env);
  const auto corrupted = injector.corrupt_csv(fx.csv, every_class_rates());

  // Every class must actually be present in this corruption pass.
  for (const FaultClass fault :
       {FaultClass::kTruncatedLine, FaultClass::kBadField,
        FaultClass::kDuplicateRecord, FaultClass::kOutOfOrderRecord,
        FaultClass::kHourArtifact, FaultClass::kClockSkew,
        FaultClass::kNegativeDuration, FaultClass::kOverflowDuration,
        FaultClass::kUnknownCell}) {
    EXPECT_GT(corrupted.log.count(fault), 0u) << name(fault);
  }

  cdr::IngestReport report;
  cdr::Dataset loaded;
  ASSERT_NO_THROW(loaded = cdr::read_csv_text(corrupted.text, fx.lenient,
                                              report));

  // Ingest-detected classes: counter == injected count, exactly.
  for (const FaultClass fault :
       {FaultClass::kTruncatedLine, FaultClass::kBadField,
        FaultClass::kDuplicateRecord, FaultClass::kOutOfOrderRecord,
        FaultClass::kClockSkew, FaultClass::kNegativeDuration,
        FaultClass::kOverflowDuration, FaultClass::kUnknownCell}) {
    EXPECT_EQ(report.count(fault), corrupted.log.count(fault))
        << name(fault);
  }
  // Hour artifacts pass ingest untouched; the clean stage accounts them.
  EXPECT_EQ(report.count(FaultClass::kHourArtifact), 0u);
  cdr::CleanReport clean_report;
  const cdr::Dataset cleaned = cdr::clean(loaded, {}, clean_report);
  EXPECT_EQ(clean_report.hour_artifacts_removed,
            corrupted.log.count(FaultClass::kHourArtifact));
  EXPECT_EQ(clean_report.nonpositive_removed, 0u);

  // Conservation: every physical row is accepted, quarantined or a deduped
  // duplicate; repairs are the duplicates plus the re-sorted swaps.
  EXPECT_EQ(report.rows_read,
            report.records_accepted + report.records_dropped +
                report.count(FaultClass::kDuplicateRecord));
  EXPECT_EQ(report.records_repaired,
            report.count(FaultClass::kDuplicateRecord) +
                report.count(FaultClass::kOutOfOrderRecord));
  const std::uint64_t destroyed =
      report.count(FaultClass::kTruncatedLine) +
      report.count(FaultClass::kBadField) +
      report.count(FaultClass::kClockSkew) +
      report.count(FaultClass::kNegativeDuration) +
      report.count(FaultClass::kOverflowDuration) +
      report.count(FaultClass::kUnknownCell);
  EXPECT_EQ(report.records_accepted, fx.base.size() - destroyed);
  EXPECT_EQ(report.records_dropped, destroyed);
  EXPECT_TRUE(report.bom_stripped);

  // Quarantine is capped but counting is not; every ingest fault (including
  // repaired duplicates / out-of-order rows) leaves a quarantine trace.
  EXPECT_LE(report.quarantine.size(), fx.lenient.quarantine_cap);
  EXPECT_EQ(report.quarantine.size() + report.quarantine_overflow,
            report.total_faults());

  // The surviving study is intact: cleaned size is accepted minus the
  // injected artifacts (every un-faulted record made it through).
  EXPECT_EQ(cleaned.size(),
            report.records_accepted -
                corrupted.log.count(FaultClass::kHourArtifact));
}

TEST(FaultRoundTrip, HourArtifactKeepsTiesInSortOrder) {
  // Two records share (car, start, cell), so duration alone orders them.
  // Rewriting the first to 3600 s would sort it after its twin, and
  // rewriting both would duplicate it; either way the reader would detect
  // a fault the log does not hold.
  const std::string csv = cdr::write_csv_text(test::make_dataset(
      {test::conn(7, 5, 1000, 100), test::conn(7, 5, 1000, 170),
       test::conn(7, 5, 2000, 60)},
      /*fleet_size=*/8, /*study_days=*/1));
  FaultEnv env;
  env.horizon_s = 86400;
  env.cell_universe = 16;
  cdr::IngestOptions lenient;
  lenient.mode = cdr::ParseMode::kLenient;
  lenient.horizon_s = env.horizon_s;
  lenient.cell_universe = env.cell_universe;
  CsvFaultRates rates;
  rates.hour_artifact = 0.5;

  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    FaultInjector injector(seed, env);
    const auto corrupted = injector.corrupt_csv(csv, rates);
    injected += corrupted.log.count(FaultClass::kHourArtifact);

    cdr::IngestReport report;
    const cdr::Dataset loaded =
        cdr::read_csv_text(corrupted.text, lenient, report);
    EXPECT_TRUE(report.clean()) << "seed " << seed << "\n" << corrupted.text;
    cdr::CleanReport clean_report;
    (void)cdr::clean(loaded, {}, clean_report);
    EXPECT_EQ(clean_report.hour_artifacts_removed,
              corrupted.log.count(FaultClass::kHourArtifact))
        << "seed " << seed;
  }
  EXPECT_GT(injected, 0u);
}

TEST(FaultRoundTrip, StrictThrowsAtTheFirstFaultByteOffset) {
  const Fixture& fx = fixture();
  FaultInjector injector(0xBEEF, fx.env);
  const auto corrupted = injector.corrupt_csv(fx.csv, every_class_rates());
  ASSERT_GT(corrupted.log.ingest_detectable(), 0u);

  const std::uint64_t expected_offset = corrupted.log.first_fatal_offset();
  cdr::IngestReport report;
  try {
    (void)cdr::read_csv_text(corrupted.text, fx.strict, report);
    FAIL() << "strict ingest must throw on corrupted input";
  } catch (const util::CsvError& e) {
    const std::string message = e.what();
    const std::string needle =
        "byte offset " + std::to_string(expected_offset) + " in";
    EXPECT_NE(message.find(needle), std::string::npos) << message;
  }
}

TEST(FaultRoundTrip, BinaryBitFlipsAreDetectedExactly) {
  const Fixture& fx = fixture();
  const std::string bytes = cdr::write_binary_buffer(fx.base);

  BinaryFaultPlan plan;
  plan.flip_duration_sign = 0.01;
  plan.flip_cell_high_bit = 0.01;
  FaultInjector injector(0xCAFE, fx.env);
  const auto corrupted = injector.corrupt_binary(bytes, plan);
  EXPECT_GT(corrupted.log.count(FaultClass::kNegativeDuration), 0u);
  EXPECT_GT(corrupted.log.count(FaultClass::kUnknownCell), 0u);

  cdr::IngestReport report;
  const cdr::Dataset loaded =
      cdr::read_binary_buffer(corrupted.bytes, fx.lenient, report);
  EXPECT_EQ(report.count(FaultClass::kNegativeDuration),
            corrupted.log.count(FaultClass::kNegativeDuration));
  EXPECT_EQ(report.count(FaultClass::kUnknownCell),
            corrupted.log.count(FaultClass::kUnknownCell));
  EXPECT_EQ(loaded.size(), fx.base.size() - corrupted.log.total());

  // Strict fails at the first flipped record's offset.
  cdr::IngestReport strict_report;
  try {
    (void)cdr::read_binary_buffer(corrupted.bytes, fx.strict, strict_report);
    FAIL() << "strict ingest must throw on flipped records";
  } catch (const util::CsvError& e) {
    const std::string needle =
        "byte offset " + std::to_string(corrupted.log.first_fatal_offset()) +
        " in";
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FaultRoundTrip, BinaryHeaderDamageDegradesGracefully) {
  const Fixture& fx = fixture();
  const std::string bytes = cdr::write_binary_buffer(fx.base);
  FaultInjector injector(0xD00F, fx.env);

  BinaryFaultPlan magic;
  magic.corrupt_magic = true;
  const auto bad_magic = injector.corrupt_binary(bytes, magic);
  cdr::IngestReport report;
  const cdr::Dataset none =
      cdr::read_binary_buffer(bad_magic.bytes, fx.lenient, report);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(report.count(FaultClass::kBadHeader), 1u);

  BinaryFaultPlan inflate;
  inflate.inflate_record_count = true;
  const auto inflated = injector.corrupt_binary(bytes, inflate);
  cdr::IngestReport inflate_report;
  const cdr::Dataset all =
      cdr::read_binary_buffer(inflated.bytes, fx.lenient, inflate_report);
  EXPECT_EQ(all.size(), fx.base.size());
  EXPECT_EQ(inflate_report.count(FaultClass::kTruncatedPayload), 1u);

  BinaryFaultPlan chop;
  chop.truncate_records = 5;
  const auto chopped = injector.corrupt_binary(bytes, chop);
  cdr::IngestReport chop_report;
  const cdr::Dataset rest =
      cdr::read_binary_buffer(chopped.bytes, fx.lenient, chop_report);
  EXPECT_EQ(rest.size(), fx.base.size() - 5);
  EXPECT_EQ(chop_report.count(FaultClass::kTruncatedPayload), 1u);
}

}  // namespace
}  // namespace ccms::faults
