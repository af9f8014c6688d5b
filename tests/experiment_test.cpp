// Surface tests for the experiment driver (configuration handling and
// cross-mode consistency; soundness itself is covered by integration and
// theorem-validation tests).
#include <gtest/gtest.h>

#include "pipeline/experiment.h"

namespace frap::pipeline {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload =
      workload::PipelineWorkloadConfig::balanced(2, 10 * kMilli, 1.0, 50.0);
  cfg.seed = 3;
  cfg.sim_duration = 10.0;
  cfg.warmup = 1.0;
  return cfg;
}

TEST(ExperimentTest, ProducesConsistentCounts) {
  const auto r = run_experiment(small_config());
  EXPECT_GT(r.offered, 0u);
  EXPECT_LE(r.admitted, r.offered);
  EXPECT_EQ(r.completed, r.admitted);  // pipeline drains after arrivals stop
  EXPECT_GT(r.events, r.offered);      // each task needs several events
  EXPECT_EQ(r.stage_utilization.size(), 2u);
}

TEST(ExperimentTest, RatiosAreRatios) {
  const auto r = run_experiment(small_config());
  EXPECT_GE(r.acceptance_ratio, 0.0);
  EXPECT_LE(r.acceptance_ratio, 1.0);
  EXPECT_GE(r.miss_ratio, 0.0);
  EXPECT_LE(r.miss_ratio, 1.0);
  EXPECT_NEAR(r.acceptance_ratio,
              static_cast<double>(r.admitted) /
                  static_cast<double>(r.offered),
              1e-12);
}

TEST(ExperimentTest, NoneModeAdmitsEverything) {
  auto cfg = small_config();
  cfg.admission = AdmissionMode::kNone;
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.admitted, r.offered);
  EXPECT_DOUBLE_EQ(r.acceptance_ratio, 1.0);
}

TEST(ExperimentTest, ModesAdmitDifferently) {
  auto exact = small_config();
  auto approx = exact;
  approx.admission = AdmissionMode::kApproximate;
  auto split = exact;
  split.admission = AdmissionMode::kDeadlineSplit;
  const auto re = run_experiment(exact);
  const auto ra = run_experiment(approx);
  const auto rs = run_experiment(split);
  // Same arrivals (same seed): offered counts match.
  EXPECT_EQ(re.offered, ra.offered);
  EXPECT_EQ(re.offered, rs.offered);
  // Split is the most conservative on this workload.
  EXPECT_LT(rs.admitted, re.admitted);
}

TEST(ExperimentTest, BottleneckIsMaxOfStages) {
  auto cfg = small_config();
  cfg.workload.mean_compute = {10 * kMilli, 2 * kMilli};
  const auto r = run_experiment(cfg);
  double max_u = 0;
  for (double u : r.stage_utilization) max_u = std::max(max_u, u);
  EXPECT_DOUBLE_EQ(r.bottleneck_utilization, max_u);
  // Stage 0 carries 5x the work: it must be the bottleneck.
  EXPECT_GT(r.stage_utilization[0], r.stage_utilization[1]);
}

TEST(ExperimentTest, SeedChangesResults) {
  auto a = small_config();
  auto b = small_config();
  b.seed = 4;
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_NE(ra.offered, rb.offered);
}

TEST(ExperimentTest, RandomPolicyRunsAndIsSound) {
  auto cfg = small_config();
  cfg.priority = PriorityMode::kRandom;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.completed, 0u);
  EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0);
}

TEST(ExperimentTest, PatienceZeroAndPositiveBothSound) {
  auto with = small_config();
  with.patience = 100 * kMilli;
  const auto r = run_experiment(with);
  EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0);
  EXPECT_EQ(r.completed, r.admitted);
}

TEST(ExperimentTest, EdfAndLlfPoliciesRunAndStaySound) {
  // Dynamic dispatch policies keep the DM admission region (alpha = 1), and
  // uniprocessor EDF meets every deadline whenever fixed-priority DM does —
  // so an admitted workload must stay miss-free under both.
  for (const auto mode : {PriorityMode::kEdf, PriorityMode::kLlf}) {
    auto cfg = small_config();
    cfg.priority = mode;
    const auto r = run_experiment(cfg);
    EXPECT_GT(r.completed, 0u);
    EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0);
    EXPECT_EQ(r.completed, r.admitted);
  }
}

TEST(ExperimentTest, PooledStagesRunUnderEveryPolicy) {
  // procs_per_stage > 1 gives each StageServer a processor pool (gEDF when
  // combined with kEdf). Admission charges each stage as a single resource,
  // so the region stays conservative and nothing should miss.
  for (const auto mode :
       {PriorityMode::kDeadlineMonotonic, PriorityMode::kEdf}) {
    auto cfg = small_config();
    cfg.priority = mode;
    cfg.procs_per_stage = 2;
    const auto r = run_experiment(cfg);
    EXPECT_GT(r.completed, 0u);
    EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0);
  }
}

TEST(ExperimentTest, EdfSeesSameArrivalsAsDm) {
  // Same seed, same arrival process: the OFFERED stream is identical under
  // every policy. Admitted counts may differ slightly — dispatch order
  // shifts downstream completion times, which feed the idle-reset tracker —
  // but both must stay sound (zero misses, drain completely).
  auto dm = small_config();
  auto edf = small_config();
  edf.priority = PriorityMode::kEdf;
  const auto rd = run_experiment(dm);
  const auto re = run_experiment(edf);
  EXPECT_EQ(rd.offered, re.offered);
  EXPECT_DOUBLE_EQ(rd.miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(re.miss_ratio, 0.0);
  EXPECT_EQ(re.completed, re.admitted);
}

TEST(ExperimentTest, LongerSimulationOffersMore) {
  auto shorter = small_config();
  auto longer = small_config();
  longer.sim_duration = 20.0;
  const auto rs = run_experiment(shorter);
  const auto rl = run_experiment(longer);
  EXPECT_GT(rl.offered, rs.offered);
}

}  // namespace
}  // namespace frap::pipeline
