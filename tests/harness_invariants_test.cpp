// The invariant registry and the declarative scenario model: registry
// integrity, Checker bookkeeping, and the serialize/parse round trip the
// flight recorder depends on.
#include "harness/invariants.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.h"

namespace ccms::harness {
namespace {

TEST(InvariantRegistry, NamesAreUniqueKebabCaseAndDocumented) {
  const auto& registry = invariant_registry();
  ASSERT_GE(registry.size(), 16u);
  std::set<std::string_view> names;
  for (const InvariantInfo& info : registry) {
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate invariant name: " << info.name;
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_FALSE(info.protects.empty()) << info.name;
    for (const char c : info.name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-')
          << "non-kebab character '" << c << "' in " << info.name;
    }
  }
}

TEST(InvariantRegistry, LookupFindsEveryEntryAndRejectsUnknown) {
  for (const InvariantInfo& info : invariant_registry()) {
    const InvariantInfo* found = find_invariant(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found->name, info.name);
  }
  EXPECT_EQ(find_invariant("no-such-invariant"), nullptr);
  EXPECT_EQ(find_invariant(""), nullptr);
}

TEST(Checker, RecordsResultsAndReportsFirstFailure) {
  Checker checker;
  checker.check("conservation-presented", "stream", true, "offered=10");
  EXPECT_TRUE(checker.all_passed());
  EXPECT_EQ(checker.first_failure(), nullptr);

  checker.check("watermark-monotone", "stream", false, "regressed");
  checker.check("exactly-once", "stream", false, "replayed=1");
  EXPECT_FALSE(checker.all_passed());
  ASSERT_NE(checker.first_failure(), nullptr);
  EXPECT_EQ(checker.first_failure()->invariant, "watermark-monotone");
  EXPECT_EQ(checker.first_failure()->stage, "stream");
  EXPECT_EQ(checker.first_failure()->detail, "regressed");

  const auto results = std::move(checker).take();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].pass);
  EXPECT_FALSE(results[1].pass);
}

TEST(CheckerDeathTest, UnregisteredInvariantNameAborts) {
  Checker checker;
  EXPECT_DEATH(checker.check("definitely-not-registered", "stream", true, ""),
               "unregistered invariant");
}

TEST(ScenarioPack, ShipsNamedScenariosWithUniqueNames) {
  const auto& pack = named_scenarios();
  ASSERT_GE(pack.size(), 8u);
  std::set<std::string> names;
  for (const Scenario& s : pack) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate: " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    const Scenario* found = find_scenario(s.name);
    ASSERT_NE(found, nullptr) << s.name;
    EXPECT_EQ(found->name, s.name);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioSerialization, RoundTripsEveryNamedScenario) {
  for (const Scenario& s : named_scenarios()) {
    for (const std::uint64_t seed : {1ull, 20170901ull, 0xFFFFFFFFFFFFull}) {
      const std::string text = serialize_scenario(s, seed);
      std::string error;
      const auto parsed = parse_scenario(text, &error);
      ASSERT_TRUE(parsed.has_value()) << s.name << ": " << error;
      EXPECT_EQ(parsed->seed, seed) << s.name;
      EXPECT_EQ(parsed->scenario.name, s.name);
      // Field-exact round trip: re-serializing reproduces the bytes.
      EXPECT_EQ(serialize_scenario(parsed->scenario, parsed->seed), text)
          << s.name;
    }
  }
}

TEST(ScenarioSerialization, ParseRejectsDamagedInput) {
  const Scenario& s = named_scenarios().front();
  const std::string good = serialize_scenario(s, 7);

  std::string error;
  EXPECT_FALSE(parse_scenario("", &error).has_value());
  EXPECT_FALSE(parse_scenario("not a scenario\n", &error).has_value());
  EXPECT_FALSE(parse_scenario(good + "mystery_key=1\n", &error).has_value());

  // Malformed value in a known key.
  std::string bad = good;
  const auto at = bad.find("seed=");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 5, "seed=banana\n#");
  EXPECT_FALSE(parse_scenario(bad, &error).has_value());
  EXPECT_FALSE(error.empty());

  // Integers outside their member's range are malformed, not narrowed.
  const auto with = [&](const std::string& key, const std::string& value) {
    std::string text = good;
    const auto line = text.find("\n" + key + "=");
    EXPECT_NE(line, std::string::npos) << key;
    const auto begin = line + key.size() + 2;
    text.replace(begin, text.find('\n', begin) - begin, value);
    return text;
  };
  EXPECT_TRUE(parse_scenario(with("cars", "4294967295"), &error).has_value())
      << error;
  for (const auto& [key, value] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {"cars", "4294967297"},
           {"cars", "-1"},
           {"days", "2147483648"},
           {"grid", "-2147483649"},
           {"shards", "4294967300"},
           {"duplicate_factor", "2147483648"},
           {"kill_shard", "-9223372036854775808"},
           {"dist_kill_worker", "2147483648"},
           {"dist_hang_worker", "2147483648"},
           {"dist_fault_generations", "4294967297"},
           {"dist_max_restarts", "2147483648"},
           {"kill_shard_after", "18446744073709551616"},
           {"allowed_lateness", "9223372036854775808"},
           {"quarantine_cap", "-1"},
       }) {
    error.clear();
    EXPECT_FALSE(parse_scenario(with(key, value), &error).has_value())
        << key << "=" << value;
    EXPECT_EQ(error, "malformed value for " + key + ": " + value);
  }
}

// Pins the key list itself: every field differs from its default and from
// every other field, so a key bound to the wrong member or two swapped keys
// change the text. The round-trip tests above cannot see that.
TEST(ScenarioSerialization, KeyListMatchesLiteralText) {
  Scenario s;
  s.name = "pinned";
  s.description = "free text = kept whole; last line";
  s.workload = {.cars = 101, .days = 2, .grid = 3, .pristine = false};
  s.shards = 5;
  s.exactly_once = true;
  s.allowed_lateness = 307;
  FaultPlan& f = s.faults;
  f.csv_corruption = 0.125;
  f.feed_late_rate = 0.25;
  f.feed_max_delay = 241;
  f.disconnect_rate = 0.0625;
  f.reorder_rate = 0.375;
  f.duplicate_factor = 6;
  f.kill_shard = 7;
  f.kill_shard_after = 8001;
  f.kill_points = {0.5, 0.75};
  f.quarantine_cap = 65;
  f.queue_batches = 66;
  f.batch_records = 513;
  f.sabotage_drop = true;
  f.dist_kill_worker = 9;
  f.dist_kill_after = 10001;
  f.dist_hang_worker = 11;
  f.dist_hang_after = 12001;
  f.dist_fault_generations = 13;
  f.dist_max_restarts = 14;
  f.dist_checkpoint_every = 15001;
  s.run_batch = false;
  s.run_stream = false;
  s.run_restore = true;
  s.check_parity = false;
  s.expect_degraded = true;
  s.check_rerun_determinism = true;
  s.check_checkpoint_idempotence = true;
  s.check_columnar = true;
  s.run_dist = true;
  s.dist_expect_lost = true;

  const std::string expected =
      "format=ccms-harness-scenario-v1\n"
      "name=pinned\n"
      "seed=424242\n"
      "cars=101\n"
      "days=2\n"
      "grid=3\n"
      "pristine=0\n"
      "shards=5\n"
      "exactly_once=1\n"
      "allowed_lateness=307\n"
      "csv_corruption=0.125\n"
      "feed_late_rate=0.25\n"
      "feed_max_delay=241\n"
      "disconnect_rate=0.0625\n"
      "reorder_rate=0.375\n"
      "duplicate_factor=6\n"
      "kill_shard=7\n"
      "kill_shard_after=8001\n"
      "kill_points=0.5;0.75\n"
      "quarantine_cap=65\n"
      "queue_batches=66\n"
      "batch_records=513\n"
      "sabotage_drop=1\n"
      "dist_kill_worker=9\n"
      "dist_kill_after=10001\n"
      "dist_hang_worker=11\n"
      "dist_hang_after=12001\n"
      "dist_fault_generations=13\n"
      "dist_max_restarts=14\n"
      "dist_checkpoint_every=15001\n"
      "run_batch=0\n"
      "run_stream=0\n"
      "run_restore=1\n"
      "check_parity=0\n"
      "expect_degraded=1\n"
      "check_rerun_determinism=1\n"
      "check_checkpoint_idempotence=1\n"
      "check_columnar=1\n"
      "run_dist=1\n"
      "dist_expect_lost=1\n"
      "description=free text = kept whole; last line\n";
  EXPECT_EQ(serialize_scenario(s, 424242), expected);

  std::string error;
  const auto parsed = parse_scenario(expected, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->seed, 424242u);
  EXPECT_EQ(serialize_scenario(parsed->scenario, parsed->seed), expected);

  // Flags have only two values, so the text above cannot tell two swapped
  // flags apart; flipping one at a time from the defaults can.
  Scenario base;
  base.name = "pinned";
  const std::string base_text = serialize_scenario(base, 1);
  const std::vector<std::pair<std::string, bool Scenario::*>> flags = {
      {"exactly_once", &Scenario::exactly_once},
      {"run_batch", &Scenario::run_batch},
      {"run_stream", &Scenario::run_stream},
      {"run_restore", &Scenario::run_restore},
      {"check_parity", &Scenario::check_parity},
      {"expect_degraded", &Scenario::expect_degraded},
      {"check_rerun_determinism", &Scenario::check_rerun_determinism},
      {"check_checkpoint_idempotence",
       &Scenario::check_checkpoint_idempotence},
      {"check_columnar", &Scenario::check_columnar},
      {"run_dist", &Scenario::run_dist},
      {"dist_expect_lost", &Scenario::dist_expect_lost},
  };
  const auto flipped = [&](const std::string& key, bool now) {
    std::string text = base_text;
    const std::string was = "\n" + key + "=" + (now ? "0" : "1") + "\n";
    const auto at = text.find(was);
    EXPECT_NE(at, std::string::npos) << key;
    if (at != std::string::npos) text[at + key.size() + 2] = now ? '1' : '0';
    return text;
  };
  for (const auto& [key, member] : flags) {
    Scenario one = base;
    one.*member = !(base.*member);
    EXPECT_EQ(serialize_scenario(one, 1), flipped(key, one.*member)) << key;
  }
  Scenario one = base;
  one.workload.pristine = false;
  EXPECT_EQ(serialize_scenario(one, 1), flipped("pristine", false));
  one = base;
  one.faults.sabotage_drop = true;
  EXPECT_EQ(serialize_scenario(one, 1), flipped("sabotage_drop", true));
}

}  // namespace
}  // namespace ccms::harness
