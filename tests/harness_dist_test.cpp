// The distributed scenario pack end to end: dist-parity across seeds for
// the kill-one-worker scenario (the recovered report must be bitwise
// identical to the in-process engine), the whole pack green, degraded-loss
// accounting closing, check details that repeat across runs of a seed, and
// flight-recorder round trips of the dist fields.
#include "harness/runner.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "harness/scenario.h"

namespace ccms::harness {
namespace {

std::string failure_of(const ScenarioResult& r) {
  const CheckResult* f = r.first_failure();
  return f != nullptr ? f->invariant + " @ " + f->stage + ": " + f->detail
                      : std::string();
}

/// Count of checks in `r` against `invariant` that ran at the dist stage.
std::size_t dist_checks(const ScenarioResult& r, std::string_view invariant) {
  std::size_t n = 0;
  for (const CheckResult& c : r.checks) {
    if (c.stage == "dist" && c.invariant == invariant) ++n;
  }
  return n;
}

TEST(HarnessDist, KillOneWorkerRecoversIdenticallyAcrossThreeSeeds) {
  const Scenario* s = find_scenario("dist-worker-kill");
  ASSERT_NE(s, nullptr);
  for (const std::uint64_t seed : {20170901u, 20170902u, 20170903u}) {
    const ScenarioResult r = run_scenario(*s, seed);
    EXPECT_TRUE(r.pass()) << "seed " << seed << ": " << failure_of(r);
    // The bitwise dist-parity check must have actually run — a skipped
    // stage would vacuously "pass".
    EXPECT_EQ(dist_checks(r, "dist-parity"), 1u) << "seed " << seed;
    EXPECT_EQ(dist_checks(r, "dist-supervision"), 1u) << "seed " << seed;
    EXPECT_GE(dist_checks(r, "conservation-routed"), 1u) << "seed " << seed;
  }
}

TEST(HarnessDist, DistPackGreenAcrossSeeds) {
  const std::vector<std::uint64_t> seeds = {20170901, 20170902};
  const HarnessSummary summary = run_pack(dist_scenarios(), seeds);
  ASSERT_EQ(summary.results.size(), dist_scenarios().size() * seeds.size());
  for (const ScenarioResult& r : summary.results) {
    EXPECT_TRUE(r.pass()) << r.scenario << " seed " << r.seed << ": "
                          << failure_of(r);
    EXPECT_GT(r.records, 0u) << r.scenario;
  }
  EXPECT_TRUE(summary.pass());
  // Both dist invariants appear in the JSON rollup.
  const std::string json = summary_json(summary);
  EXPECT_NE(json.find("\"dist-parity\""), std::string::npos);
  EXPECT_NE(json.find("\"dist-supervision\""), std::string::npos);
}

TEST(HarnessDist, ExhaustedBudgetDegradesWithClosedAccounting) {
  const Scenario* s = find_scenario("dist-restart-storm");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->dist_expect_lost);
  const ScenarioResult r = run_scenario(*s, 31337);
  EXPECT_TRUE(r.pass()) << failure_of(r);
  // Loss replaces parity: coverage accounting and the supervision checks
  // (budget burned exactly, checkpoint refused) must have run instead.
  EXPECT_EQ(dist_checks(r, "dist-parity"), 0u);
  EXPECT_GE(dist_checks(r, "dist-supervision"), 2u);
  EXPECT_EQ(dist_checks(r, "coverage-accounting"), 1u);
  EXPECT_GE(dist_checks(r, "conservation-routed"), 1u);
}

TEST(HarnessDist, DistDetailsRepeatAcrossRuns) {
  // Every check's detail is a pure function of (scenario, seed): a replay
  // bundle must reproduce its own detail string, even though restart and
  // replay volumes depend on process timing.
  using Signature =
      std::vector<std::tuple<std::string, std::string, bool, std::string>>;
  const auto signature = [](const ScenarioResult& r) {
    Signature out;
    for (const CheckResult& c : r.checks) {
      out.emplace_back(c.invariant, c.stage, c.pass, c.detail);
    }
    return out;
  };
  for (const char* name : {"dist-worker-kill", "dist-restart-storm"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    const Signature first = signature(run_scenario(*s, 20170901));
    EXPECT_GE(first.size(), 1u) << name;
    for (int run = 1; run < 3; ++run) {
      const Signature again = signature(run_scenario(*s, 20170901));
      ASSERT_EQ(again.size(), first.size()) << name << " run " << run;
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(again[i], first[i])
            << name << " run " << run << ": " << std::get<0>(first[i])
            << " @ " << std::get<1>(first[i]) << " was \""
            << std::get<3>(first[i]) << "\", now \"" << std::get<3>(again[i])
            << "\"";
      }
    }
  }
}

TEST(HarnessDist, ScenarioSerializationRoundTripsDistFields) {
  for (const Scenario& s : dist_scenarios()) {
    const std::string text = serialize_scenario(s, 99);
    std::string error;
    const auto parsed = parse_scenario(text, &error);
    ASSERT_TRUE(parsed.has_value()) << s.name << ": " << error;
    EXPECT_EQ(parsed->seed, 99u);
    EXPECT_EQ(parsed->scenario.run_dist, s.run_dist);
    EXPECT_EQ(parsed->scenario.dist_expect_lost, s.dist_expect_lost);
    EXPECT_EQ(parsed->scenario.faults.dist_kill_worker,
              s.faults.dist_kill_worker);
    EXPECT_EQ(parsed->scenario.faults.dist_kill_after,
              s.faults.dist_kill_after);
    EXPECT_EQ(parsed->scenario.faults.dist_hang_worker,
              s.faults.dist_hang_worker);
    EXPECT_EQ(parsed->scenario.faults.dist_hang_after,
              s.faults.dist_hang_after);
    EXPECT_EQ(parsed->scenario.faults.dist_fault_generations,
              s.faults.dist_fault_generations);
    EXPECT_EQ(parsed->scenario.faults.dist_max_restarts,
              s.faults.dist_max_restarts);
    EXPECT_EQ(parsed->scenario.faults.dist_checkpoint_every,
              s.faults.dist_checkpoint_every);
    // The round trip re-serializes identically (flight-recorder property).
    EXPECT_EQ(serialize_scenario(parsed->scenario, parsed->seed), text)
        << s.name;
  }
}

}  // namespace
}  // namespace ccms::harness
