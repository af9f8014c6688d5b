// Analytical anchors for Theorem 1's delay function f(U) = U(1-U/2)/(1-U).
#include <gtest/gtest.h>

#include <cmath>

#include "core/stage_delay.h"
#include "util/math.h"

namespace frap::core {
namespace {

TEST(StageDelayTest, ZeroUtilizationZeroDelay) {
  EXPECT_DOUBLE_EQ(stage_delay_factor(0.0), 0.0);
}

TEST(StageDelayTest, KnownValues) {
  // f(0.5) = 0.5 * 0.75 / 0.5 = 0.75.
  EXPECT_DOUBLE_EQ(stage_delay_factor(0.5), 0.75);
  // TSCE certification values (Sec. 5): f(0.4), f(0.25), f(0.1).
  EXPECT_NEAR(stage_delay_factor(0.4), 0.4 * 0.8 / 0.6, 1e-12);
  EXPECT_NEAR(stage_delay_factor(0.25), 0.25 * 0.875 / 0.75, 1e-12);
  EXPECT_NEAR(stage_delay_factor(0.1), 0.1 * 0.95 / 0.9, 1e-12);
}

TEST(StageDelayTest, SaturatedStageIsInfinite) {
  EXPECT_TRUE(std::isinf(stage_delay_factor(1.0)));
  EXPECT_TRUE(std::isinf(stage_delay_factor(1.5)));
}

TEST(StageDelayTest, DivergesNearOne) {
  EXPECT_GT(stage_delay_factor(0.999), 100.0);
}

TEST(StageDelayTest, UniprocessorBoundMatchesPaper) {
  // U <= 1/(1 + sqrt(1/2)) = 2 - sqrt(2) ~= 0.5858 (Sec. 3.1).
  const double b = uniprocessor_bound();
  EXPECT_NEAR(b, 0.585786437626905, 1e-12);
  EXPECT_NEAR(b, 1.0 / (1.0 + std::sqrt(0.5)), 1e-12);
  // f at the bound equals exactly 1.
  EXPECT_NEAR(stage_delay_factor(b), 1.0, 1e-12);
}

TEST(StageDelayTest, InverseRoundTrips) {
  for (double u = 0.0; u < 0.99; u += 0.01) {
    const double y = stage_delay_factor(u);
    EXPECT_NEAR(stage_delay_factor_inverse(y), u, 1e-9) << "u=" << u;
  }
}

TEST(StageDelayTest, InverseKnownValues) {
  EXPECT_NEAR(stage_delay_factor_inverse(1.0), 2.0 - std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(stage_delay_factor_inverse(0.0), 0.0);
  // f_inv(y) = 1 + y - sqrt(1 + y^2).
  EXPECT_NEAR(stage_delay_factor_inverse(0.5),
              1.5 - std::sqrt(1.25), 1e-12);
}

TEST(StageDelayTest, BalancedStageBound) {
  // N = 1 reduces to the uniprocessor bound.
  EXPECT_NEAR(balanced_stage_bound(1), uniprocessor_bound(), 1e-12);
  // N = 2: f_inv(1/2) = 1.5 - sqrt(1.25) ~= 0.38197.
  EXPECT_NEAR(balanced_stage_bound(2), 1.5 - std::sqrt(1.25), 1e-12);
  // Monotonically decreasing in N.
  double prev = balanced_stage_bound(1);
  for (std::size_t n = 2; n <= 32; ++n) {
    const double b = balanced_stage_bound(n);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(StageDelayTest, BalancedBoundScalesAsOneOverN) {
  // Sec. 3.1 argues the bound does not get more pessimistic with pipeline
  // depth because U_j = O(1/N): check N * U*_N approaches 1 from below.
  for (std::size_t n : {10u, 100u, 1000u}) {
    const double product = static_cast<double>(n) * balanced_stage_bound(n);
    EXPECT_GT(product, 0.9);
    EXPECT_LT(product, 1.0);
  }
}

// Property sweep: monotonicity and convexity of f on a fine grid.
class StageDelayGridTest : public ::testing::TestWithParam<int> {};

TEST_P(StageDelayGridTest, StrictlyIncreasing) {
  const double u = GetParam() / 100.0;
  const double next = (GetParam() + 1) / 100.0;
  EXPECT_LT(stage_delay_factor(u), stage_delay_factor(next));
}

TEST_P(StageDelayGridTest, ConvexBySecant) {
  // f((a+b)/2) <= (f(a)+f(b))/2.
  const double a = GetParam() / 100.0;
  const double b = a + 0.01;
  const double mid = stage_delay_factor((a + b) / 2);
  const double secant = (stage_delay_factor(a) + stage_delay_factor(b)) / 2;
  EXPECT_LE(mid, secant + 1e-12);
}

TEST_P(StageDelayGridTest, InverseIsExactInverse) {
  const double u = GetParam() / 100.0;
  const double y = stage_delay_factor(u);
  const double back = stage_delay_factor_inverse(y);
  EXPECT_NEAR(back, u, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, StageDelayGridTest,
                         ::testing::Range(0, 98));

}  // namespace
}  // namespace frap::core
