#include <gtest/gtest.h>

#include <vector>

#include "core/feasible_region.h"
#include "core/reservation.h"

namespace frap::core {
namespace {

using Rule = ReservationPlanner::StageRule;

TEST(ReservationPlannerTest, SumRuleAccumulates) {
  ReservationPlanner p({Rule::kSum, Rule::kSum});
  p.add_contributions({0.1, 0.2});
  p.add_contributions({0.15, 0.05});
  const auto r = p.reserved();
  EXPECT_DOUBLE_EQ(r[0], 0.25);
  EXPECT_DOUBLE_EQ(r[1], 0.25);
}

TEST(ReservationPlannerTest, MaxRuleTakesLargest) {
  ReservationPlanner p({Rule::kMax});
  p.add_contributions({0.1});
  p.add_contributions({0.3});
  p.add_contributions({0.2});
  EXPECT_DOUBLE_EQ(p.reserved()[0], 0.3);
}

TEST(ReservationPlannerTest, MixedRulesMatchTsce) {
  // The Sec. 5 computation: stages 1-2 sum, stage 3 (consoles) max.
  ReservationPlanner p({Rule::kSum, Rule::kSum, Rule::kMax});
  p.add_contributions({0.2, 0.13, 0.06});   // Weapon Detection
  p.add_contributions({0.1, 0.1, 0.1});     // Weapon Targeting
  p.add_contributions({0.1, 0.02, 0.1});    // UAV video
  const auto r = p.reserved();
  EXPECT_NEAR(r[0], 0.4, 1e-12);
  EXPECT_NEAR(r[1], 0.25, 1e-12);
  EXPECT_NEAR(r[2], 0.1, 1e-12);
}

TEST(ReservationPlannerTest, CertificationAgainstRegion) {
  ReservationPlanner p({Rule::kSum, Rule::kSum, Rule::kMax});
  p.add_contributions({0.4, 0.25, 0.1});
  const auto region = FeasibleRegion::deadline_monotonic(3);
  EXPECT_NEAR(p.certification_lhs(region), 0.93055, 1e-4);
  EXPECT_TRUE(p.certifies(region));
}

TEST(ReservationPlannerTest, OverCommittedFailsCertification) {
  ReservationPlanner p({Rule::kSum, Rule::kSum});
  p.add_contributions({0.5, 0.5});
  EXPECT_FALSE(p.certifies(FeasibleRegion::deadline_monotonic(2)));
}

TEST(ReservationPlannerTest, EmptyPlannerReservesNothing) {
  ReservationPlanner p({Rule::kSum, Rule::kSum});
  const auto r = p.reserved();
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_TRUE(p.certifies(FeasibleRegion::deadline_monotonic(2)));
}

}  // namespace
}  // namespace frap::core
