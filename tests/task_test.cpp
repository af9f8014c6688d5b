#include <gtest/gtest.h>

#include "core/task.h"
#include "util/time.h"

namespace frap::core {
namespace {

TEST(StageDemandTest, DefaultSegmentIsSingleLockFree) {
  StageDemand d;
  d.compute = 2.5;
  std::vector<sched::Segment> segs;
  d.append_segments(segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(segs[0].length, 2.5);
  EXPECT_EQ(segs[0].lock, sched::kNoLock);
  EXPECT_TRUE(d.valid());
}

TEST(StageDemandTest, ExplicitSegmentsPreserved) {
  StageDemand d;
  d.compute = 3.0;
  d.segments = {sched::Segment{1.0, sched::kNoLock}, sched::Segment{2.0, 0}};
  EXPECT_TRUE(d.valid());
  std::vector<sched::Segment> segs;
  d.append_segments(segs);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].lock, 0);
}

TEST(StageDemandTest, MismatchedSegmentsInvalid) {
  StageDemand d;
  d.compute = 3.0;
  d.segments = {sched::Segment{1.0, sched::kNoLock}};
  EXPECT_FALSE(d.valid());
}

TEST(StageDemandTest, NegativeComputeInvalid) {
  StageDemand d;
  d.compute = -1.0;
  EXPECT_FALSE(d.valid());
}

TEST(TaskSpecTest, ContributionsAreCOverD) {
  TaskSpec spec;
  spec.deadline = 2.0;
  spec.stages.resize(2);
  spec.stages[0].compute = 0.5;
  spec.stages[1].compute = 1.0;
  const auto c = spec.contributions();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 0.25);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
}

TEST(TaskSpecTest, Validity) {
  TaskSpec spec;
  EXPECT_FALSE(spec.valid());  // no deadline, no stages
  spec.deadline = 1.0;
  EXPECT_FALSE(spec.valid());  // no stages
  spec.stages.resize(1);
  spec.stages[0].compute = 0.1;
  EXPECT_TRUE(spec.valid());
  spec.deadline = 0.0;
  EXPECT_FALSE(spec.valid());
}

TEST(TaskSpecTest, ZeroComputeStageIsValid) {
  // Pass-through stages (e.g. TSCE track tasks on stages 2-3) are legal.
  TaskSpec spec;
  spec.deadline = 1.0;
  spec.stages.resize(2);
  spec.stages[0].compute = 0.01;
  spec.stages[1].compute = 0.0;
  EXPECT_TRUE(spec.valid());
}

}  // namespace
}  // namespace frap::core
