#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/feasible_region.h"
#include "core/stage_delay.h"

namespace frap::core {
namespace {

TEST(FeasibleRegionTest, SingleStageReducesToUniprocessorBound) {
  const auto region = FeasibleRegion::deadline_monotonic(1);
  const double b = uniprocessor_bound();
  EXPECT_TRUE(region.contains(std::vector<double>{b - 1e-9}));
  EXPECT_FALSE(region.contains(std::vector<double>{b + 1e-6}));
}

TEST(FeasibleRegionTest, Tsce930Certification) {
  // Sec. 5: U = (0.4, 0.25, 0.1) under Eq. 13 gives ~0.93 < 1.
  const auto region = FeasibleRegion::deadline_monotonic(3);
  const std::vector<double> u{0.4, 0.25, 0.1};
  EXPECT_NEAR(region.lhs(u), 0.9305555555, 1e-6);
  EXPECT_TRUE(region.contains(u));
}

TEST(FeasibleRegionTest, OriginIsAlwaysInside) {
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto region = FeasibleRegion::deadline_monotonic(n);
    EXPECT_TRUE(region.contains(std::vector<double>(n, 0.0)));
  }
}

TEST(FeasibleRegionTest, SaturatedStageIsOutside) {
  const auto region = FeasibleRegion::deadline_monotonic(2);
  EXPECT_FALSE(region.contains(std::vector<double>{1.0, 0.0}));
  EXPECT_TRUE(std::isinf(region.lhs(std::vector<double>{1.0, 0.0})));
}

TEST(FeasibleRegionTest, LhsIsMonotoneInEachCoordinate) {
  const auto region = FeasibleRegion::deadline_monotonic(3);
  std::vector<double> u{0.2, 0.3, 0.1};
  const double base = region.lhs(u);
  for (std::size_t j = 0; j < 3; ++j) {
    auto v = u;
    v[j] += 0.05;
    EXPECT_GT(region.lhs(v), base);
  }
}

TEST(FeasibleRegionTest, AlphaShrinksTheBound) {
  const auto dm = FeasibleRegion::deadline_monotonic(2);
  const auto rnd = FeasibleRegion::with_alpha(2, 0.5);
  EXPECT_DOUBLE_EQ(dm.bound(), 1.0);
  EXPECT_DOUBLE_EQ(rnd.bound(), 0.5);
  // A point inside the DM region but outside the alpha = 0.5 region.
  const std::vector<double> u{0.35, 0.35};
  EXPECT_TRUE(dm.contains(u));
  EXPECT_FALSE(rnd.contains(u));
}

TEST(FeasibleRegionTest, BlockingShrinksTheBound) {
  // Eq. 15: bound = alpha (1 - sum beta_j).
  const auto region =
      FeasibleRegion::with_blocking(1.0, std::vector<double>{0.1, 0.2});
  EXPECT_NEAR(region.bound(), 0.7, 1e-12);
  const auto with_alpha =
      FeasibleRegion::with_blocking(0.8, std::vector<double>{0.1, 0.2});
  EXPECT_NEAR(with_alpha.bound(), 0.8 * 0.7, 1e-12);
}

TEST(FeasibleRegionTest, BalancedCapMatchesClosedForm) {
  for (std::size_t n = 1; n <= 10; ++n) {
    const auto region = FeasibleRegion::deadline_monotonic(n);
    // N stages at the balanced cap exactly exhaust the bound.
    std::vector<double> u(n, balanced_stage_bound(n));
    EXPECT_NEAR(region.lhs(u), region.bound(), 1e-9);
  }
}

TEST(FeasibleRegionTest, BoundaryU2Tracing) {
  const auto region = FeasibleRegion::deadline_monotonic(2);
  // At U1 = 0, U2 may go up to the uniprocessor bound.
  EXPECT_NEAR(region.boundary_u2(0.0), uniprocessor_bound(), 1e-12);
  // At the balanced cap, U2 equals the cap.
  const double cap = balanced_stage_bound(2);
  EXPECT_NEAR(region.boundary_u2(cap), cap, 1e-9);
  // Past the single-stage bound, nothing remains for stage 2.
  EXPECT_DOUBLE_EQ(region.boundary_u2(0.75), 0.0);
  // Tracing is monotone decreasing.
  double prev = region.boundary_u2(0.0);
  for (double u1 = 0.05; u1 < 0.6; u1 += 0.05) {
    const double u2 = region.boundary_u2(u1);
    EXPECT_LE(u2, prev + 1e-12);
    prev = u2;
  }
}

TEST(FeasibleRegionTest, BoundaryPointsSatisfyRegionExactly) {
  const auto region = FeasibleRegion::deadline_monotonic(2);
  for (double u1 = 0.0; u1 < 0.58; u1 += 0.02) {
    const double u2 = region.boundary_u2(u1);
    const double lhs = region.lhs(std::vector<double>{u1, u2});
    EXPECT_NEAR(lhs, 1.0, 1e-9) << "u1=" << u1;
  }
}

// ------------------------------------------------- saturation guards -----
// U_j >= 1 makes f(U_j) infinite; the region must degrade to well-defined
// values (+infinity LHS, 0 boundary) instead of feeding the saturated value
// into NaN-prone arithmetic like inf - inf.

TEST(FeasibleRegionTest, SaturatedInputsNeverProduceNan) {
  const auto region = FeasibleRegion::deadline_monotonic(2);
  const std::vector<double> sat{1.0, 0.2};
  const std::vector<double> both_sat{1.0, 2.0};

  EXPECT_TRUE(std::isinf(region.lhs(sat)));
  EXPECT_FALSE(region.contains(sat));
  EXPECT_TRUE(std::isinf(region.lhs(both_sat)));
  EXPECT_FALSE(region.contains(both_sat));
}

TEST(FeasibleRegionTest, BoundaryU2ZeroAtAndPastSaturation) {
  const auto region = FeasibleRegion::deadline_monotonic(2);
  EXPECT_DOUBLE_EQ(region.boundary_u2(1.0), 0.0);
  EXPECT_DOUBLE_EQ(region.boundary_u2(1.5), 0.0);
  EXPECT_FALSE(std::isnan(region.boundary_u2(1.0)));
}

// Property sweep over N: a point just inside the balanced cap is inside;
// just outside is outside.
class RegionBalancedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegionBalancedTest, CapIsTight) {
  const std::size_t n = GetParam();
  const auto region = FeasibleRegion::deadline_monotonic(n);
  const double cap = balanced_stage_bound(n);
  EXPECT_TRUE(region.contains(std::vector<double>(n, cap - 1e-9)));
  EXPECT_FALSE(region.contains(std::vector<double>(n, cap + 1e-6)));
}

INSTANTIATE_TEST_SUITE_P(Pipelines, RegionBalancedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 64u));

}  // namespace
}  // namespace frap::core
