#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/delay_bound.h"
#include "core/stage_delay.h"

namespace frap::core {
namespace {

TEST(DelayBoundTest, StageDelayScalesWithDmax) {
  EXPECT_DOUBLE_EQ(predict_stage_delay(0.5, 2.0), 1.5);  // f(0.5)=0.75
  EXPECT_DOUBLE_EQ(predict_stage_delay(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(predict_stage_delay(0.5, 2.0, 0.25), 1.75);
  EXPECT_TRUE(std::isinf(predict_stage_delay(1.0, 1.0)));
}

TEST(DelayBoundTest, PipelineDelaySums) {
  const std::vector<double> u{0.5, 0.5};
  EXPECT_DOUBLE_EQ(predict_pipeline_delay(u, 2.0), 3.0);
  EXPECT_TRUE(std::isinf(
      predict_pipeline_delay(std::vector<double>{0.5, 1.0}, 2.0)));
}

TEST(DelayBoundTest, AtTheRegionBoundaryDelayEqualsDeadline) {
  // Sum f(U_j) = 1 exactly <=> predicted delay = D_max. The region test and
  // the delay bound are the same condition scaled by the deadline.
  const double cap = balanced_stage_bound(3);
  const std::vector<double> u{cap, cap, cap};
  EXPECT_NEAR(predict_pipeline_delay(u, 4.0), 4.0, 1e-9);
}

TEST(DelayBoundTest, MonotoneInUtilization) {
  double prev = 0;
  for (double u = 0.0; u < 0.95; u += 0.05) {
    const double l = predict_stage_delay(u, 1.0);
    EXPECT_GE(l, prev);
    prev = l;
  }
}

}  // namespace
}  // namespace frap::core
