#include <gtest/gtest.h>

#include <cmath>

#include "core/stage_delay.h"
#include "workload/pipeline_workload.h"
#include "workload/tsce.h"

namespace frap::workload {
namespace {

// ------------------------------------------------------- config algebra ---

TEST(PipelineWorkloadConfigTest, BalancedFactory) {
  const auto c = PipelineWorkloadConfig::balanced(3, 0.01, 1.2, 50.0);
  EXPECT_EQ(c.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(c.mean_total_compute(), 0.03);
  EXPECT_DOUBLE_EQ(c.mean_deadline(), 1.5);
  EXPECT_DOUBLE_EQ(c.arrival_rate(), 120.0);
  EXPECT_TRUE(c.valid());
}

TEST(PipelineWorkloadConfigTest, DeadlineRangeGrowsWithStages) {
  // Sec. 4: "deadlines chosen uniformly from a range that grows linearly
  // with the number of stages".
  const auto c2 = PipelineWorkloadConfig::balanced(2, 0.01, 1.0);
  const auto c5 = PipelineWorkloadConfig::balanced(5, 0.01, 1.0);
  // frap-lint: allow(unsafe-division) -- ratio of two known-positive
  // configured deadlines, asserting the growth law, not an admission value.
  EXPECT_NEAR(c5.mean_deadline() / c2.mean_deadline(), 2.5, 1e-12);
  // frap-lint: allow(unsafe-division) -- same growth-law ratio as above.
  EXPECT_NEAR(c5.deadline_max() / c2.deadline_max(), 2.5, 1e-12);
}

TEST(PipelineWorkloadConfigTest, BottleneckDefinesArrivalRate) {
  PipelineWorkloadConfig c;
  c.mean_compute = {0.01, 0.02};  // stage 1 is the bottleneck
  c.input_load = 1.0;
  EXPECT_DOUBLE_EQ(c.arrival_rate(), 50.0);
}

TEST(PipelineWorkloadConfigTest, Validity) {
  PipelineWorkloadConfig c;
  EXPECT_FALSE(c.valid());  // no stages
  c.mean_compute = {0.01};
  EXPECT_TRUE(c.valid());
  c.input_load = 0;
  EXPECT_FALSE(c.valid());
  c.input_load = 1;
  c.deadline_spread = 1.0;
  EXPECT_FALSE(c.valid());
}

// ------------------------------------------------------------ generator ---

TEST(PipelineWorkloadGeneratorTest, Deterministic) {
  const auto c = PipelineWorkloadConfig::balanced(2, 0.01, 1.0);
  PipelineWorkloadGenerator a(c, 7);
  PipelineWorkloadGenerator b(c, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.next_interarrival(), b.next_interarrival());
    const auto ta = a.next_task();
    const auto tb = b.next_task();
    EXPECT_EQ(ta.id, tb.id);
    EXPECT_DOUBLE_EQ(ta.deadline, tb.deadline);
    EXPECT_DOUBLE_EQ(ta.stages[0].compute, tb.stages[0].compute);
  }
}

TEST(PipelineWorkloadGeneratorTest, InterarrivalMeanMatchesRate) {
  const auto c = PipelineWorkloadConfig::balanced(2, 0.01, 1.0);  // 100/s
  PipelineWorkloadGenerator g(c, 11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += g.next_interarrival();
  EXPECT_NEAR(sum / n, 0.01, 0.0005);
}

TEST(PipelineWorkloadGeneratorTest, ComputeMeansMatchConfig) {
  PipelineWorkloadConfig c;
  c.mean_compute = {0.01, 0.03};
  c.input_load = 1.0;
  PipelineWorkloadGenerator g(c, 13);
  double s0 = 0, s1 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto t = g.next_task();
    s0 += t.stages[0].compute;
    s1 += t.stages[1].compute;
  }
  EXPECT_NEAR(s0 / n, 0.01, 0.0005);
  EXPECT_NEAR(s1 / n, 0.03, 0.0015);
}

TEST(PipelineWorkloadGeneratorTest, DeadlinesInConfiguredRange) {
  const auto c = PipelineWorkloadConfig::balanced(2, 0.01, 1.0, 100.0);
  PipelineWorkloadGenerator g(c, 17);
  for (int i = 0; i < 10000; ++i) {
    const auto t = g.next_task();
    EXPECT_GE(t.deadline, c.deadline_min());
    EXPECT_LT(t.deadline, c.deadline_max());
  }
}

TEST(PipelineWorkloadGeneratorTest, RealizedResolutionMatches) {
  const auto c = PipelineWorkloadConfig::balanced(2, 0.01, 1.0, 40.0);
  PipelineWorkloadGenerator g(c, 19);
  double d = 0, comp = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto t = g.next_task();
    d += t.deadline;
    for (const auto& s : t.stages) comp += s.compute;
  }
  EXPECT_NEAR((d / n) / (comp / n), 40.0, 1.0);
}

TEST(PipelineWorkloadGeneratorTest, IdsAreSequentialUnique) {
  const auto c = PipelineWorkloadConfig::balanced(1, 0.01, 1.0);
  PipelineWorkloadGenerator g(c, 23);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto t = g.next_task();
    EXPECT_GT(t.id, prev);
    prev = t.id;
  }
}

// ----------------------------------------------------------------- TSCE ---

TEST(TsceTest, ReservedUtilizationsMatchPaper) {
  const auto r = tsce::reserved_utilizations();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_NEAR(r[0], 0.4, 1e-12);
  EXPECT_NEAR(r[1], 0.25, 1e-12);
  EXPECT_NEAR(r[2], 0.1, 1e-12);
}

TEST(TsceTest, CertificationValueIs093) {
  // Sec. 5: "Substituting in Equation (13), we get 0.93, which is lower
  // than 1. Hence, the task set is schedulable."
  EXPECT_NEAR(tsce::certification_lhs(), 0.93, 0.005);
  EXPECT_LT(tsce::certification_lhs(), 1.0);
}

TEST(TsceTest, WeaponDetectionMatchesTable1) {
  const auto t = tsce::weapon_detection_task(7);
  EXPECT_EQ(t.id, 7u);
  EXPECT_DOUBLE_EQ(t.deadline, 0.5);
  ASSERT_EQ(t.stages.size(), 3u);
  EXPECT_DOUBLE_EQ(t.stages[0].compute, 0.1);
  EXPECT_DOUBLE_EQ(t.stages[1].compute, 0.065);
  EXPECT_DOUBLE_EQ(t.stages[2].compute, 0.03);
}

TEST(TsceTest, WeaponTargetingMatchesTable1) {
  const auto c = tsce::weapon_targeting_stream();
  EXPECT_DOUBLE_EQ(c.period, 0.05);
  EXPECT_DOUBLE_EQ(c.deadline, 0.05);
  ASSERT_EQ(c.stages.size(), 3u);
  for (const auto& s : c.stages) EXPECT_DOUBLE_EQ(s.compute, 0.005);
}

TEST(TsceTest, UavVideoMatchesTable1) {
  const auto c = tsce::uav_video_stream();
  EXPECT_DOUBLE_EQ(c.period, 0.5);
  EXPECT_DOUBLE_EQ(c.stages[0].compute, 0.05);
  EXPECT_DOUBLE_EQ(c.stages[1].compute, 0.01);  // 5 ms x 2 consoles
  EXPECT_DOUBLE_EQ(c.stages[2].compute, 0.05);
}

TEST(TsceTest, TrackingTaskIsStage1Only) {
  const auto c = tsce::target_tracking_stream(3);
  EXPECT_DOUBLE_EQ(c.period, 1.0);
  EXPECT_DOUBLE_EQ(c.deadline, 1.0);
  EXPECT_DOUBLE_EQ(c.stages[0].compute, 0.001);
  EXPECT_DOUBLE_EQ(c.stages[1].compute, 0.0);
  EXPECT_DOUBLE_EQ(c.stages[2].compute, 0.0);
}

TEST(TsceTest, ImportanceOrderingIsStrict) {
  EXPECT_LT(tsce::kImportanceTracking, tsce::kImportanceUavVideo);
  EXPECT_LT(tsce::kImportanceUavVideo, tsce::kImportanceWeaponTargeting);
  EXPECT_LT(tsce::kImportanceWeaponTargeting,
            tsce::kImportanceWeaponDetection);
}

}  // namespace
}  // namespace frap::workload
