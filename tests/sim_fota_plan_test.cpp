#include <gtest/gtest.h>

#include "sim/fota.h"
#include "test_helpers.h"

namespace ccms::sim {
namespace {

class PlanCampaignTest : public ::testing::Test {
 protected:
  PlanCampaignTest() : topo_(test::small_topology()) {
    util::Rng rng(9);
    load_ = net::background_load(topo_, net::LoadModelConfig{}, rng);
    // A usable home cell for every synthetic input.
    home_cell_ = topo_.cells().all().front().id;
  }

  FotaCarInput input(std::uint32_t car, int days, double busy_share) const {
    return {CarId{car}, days, busy_share, home_cell_};
  }

  net::Topology topo_;
  net::CellLoad load_;
  CellId home_cell_;
};

TEST_F(PlanCampaignTest, PolicyAssignment) {
  const std::vector<FotaCarInput> cars = {
      input(0, 5, 0.0),    // rare -> immediate
      input(1, 60, 0.1),   // common, non-busy -> randomized
      input(2, 60, 0.8),   // common, busy -> off-peak window
  };
  const CampaignPlan plan = plan_campaign(cars, load_, topo_.cells());
  ASSERT_EQ(plan.cars.size(), 3u);
  EXPECT_EQ(plan.cars[0].policy, DeliveryPolicy::kImmediate);
  EXPECT_EQ(plan.cars[1].policy, DeliveryPolicy::kRandomizedOffCommute);
  EXPECT_EQ(plan.cars[2].policy, DeliveryPolicy::kOffPeakWindow);
  EXPECT_EQ(plan.policy_counts[0], 1u);
  EXPECT_EQ(plan.policy_counts[1], 1u);
  EXPECT_EQ(plan.policy_counts[2], 1u);
}

TEST_F(PlanCampaignTest, BoundaryAtRareDays) {
  CampaignConfig config;
  config.rare_days = 10;
  const std::vector<FotaCarInput> cars = {
      input(0, 10, 0.0),  // exactly 10 -> rare
      input(1, 11, 0.0),  // 11 -> common
  };
  const CampaignPlan plan = plan_campaign(cars, load_, topo_.cells(), config);
  EXPECT_EQ(plan.cars[0].policy, DeliveryPolicy::kImmediate);
  EXPECT_EQ(plan.cars[1].policy, DeliveryPolicy::kRandomizedOffCommute);
}

TEST_F(PlanCampaignTest, DownloadTimesEstimated) {
  const std::vector<FotaCarInput> cars = {input(0, 60, 0.1)};
  const CampaignPlan plan = plan_campaign(cars, load_, topo_.cells());
  ASSERT_EQ(plan.cars.size(), 1u);
  EXPECT_GT(plan.cars[0].planned_seconds, 0.0);
  EXPECT_GT(plan.cars[0].naive_seconds, 0.0);
  EXPECT_GT(plan.naive_hours, 0.0);
  EXPECT_GT(plan.planned_hours, 0.0);
}

TEST_F(PlanCampaignTest, PlannedNeverSlowerInAggregate) {
  // The planner moves busy/randomized cars away from the evening peak, so
  // the fleet-level device-hours must not increase.
  std::vector<FotaCarInput> cars;
  for (std::uint32_t i = 0; i < 40; ++i) {
    cars.push_back(input(i, 60, i % 4 == 0 ? 0.8 : 0.1));
  }
  const CampaignPlan plan = plan_campaign(cars, load_, topo_.cells());
  EXPECT_LE(plan.planned_hours, plan.naive_hours + 1e-9);
  EXPECT_GE(plan.saved_fraction(), 0.0);
}

TEST_F(PlanCampaignTest, LargerUpdateTakesLonger) {
  const std::vector<FotaCarInput> cars = {input(0, 60, 0.1)};
  CampaignConfig small;
  small.update_mb = 100;
  CampaignConfig big;
  big.update_mb = 2000;
  const auto plan_small = plan_campaign(cars, load_, topo_.cells(), small);
  const auto plan_big = plan_campaign(cars, load_, topo_.cells(), big);
  EXPECT_GT(plan_big.cars[0].planned_seconds,
            plan_small.cars[0].planned_seconds);
}

TEST_F(PlanCampaignTest, EmptyInput) {
  const CampaignPlan plan = plan_campaign({}, load_, topo_.cells());
  EXPECT_TRUE(plan.cars.empty());
  EXPECT_EQ(plan.saved_fraction(), 0.0);
}

TEST_F(PlanCampaignTest, PolicyNames) {
  EXPECT_STREQ(name(DeliveryPolicy::kImmediate), "immediate");
  EXPECT_STREQ(name(DeliveryPolicy::kOffPeakWindow), "off-peak-window");
}

}  // namespace
}  // namespace ccms::sim
