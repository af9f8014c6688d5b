#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/delay_bound.h"
#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "pipeline/pipeline_runtime.h"
#include "pipeline/trace_analysis.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/pipeline_workload.h"

namespace frap::pipeline {
namespace {

TEST(TraceAnalysisTest, ResidenceFromHandBuiltTrace) {
  TraceLog log;
  log.record(1.0, TraceEventKind::kRelease, 7);
  log.record(2.5, TraceEventKind::kStageDeparture, 7, 0);
  log.record(4.0, TraceEventKind::kStageDeparture, 7, 1);
  log.record(4.0, TraceEventKind::kComplete, 7, 0);
  const auto r = stage_residence_times(log, 7, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 1.5);
  EXPECT_DOUBLE_EQ(r[1], 1.5);
}

TEST(TraceAnalysisTest, IncompleteRecordsReturnEmpty) {
  TraceLog log;
  log.record(1.0, TraceEventKind::kRelease, 7);
  log.record(2.5, TraceEventKind::kStageDeparture, 7, 0);
  // Missing stage-1 departure.
  EXPECT_TRUE(stage_residence_times(log, 7, 2).empty());
  // Unknown task.
  EXPECT_TRUE(stage_residence_times(log, 99, 2).empty());
  // Missing release.
  TraceLog log2;
  log2.record(2.5, TraceEventKind::kStageDeparture, 8, 0);
  EXPECT_TRUE(stage_residence_times(log2, 8, 1).empty());
}

TEST(TraceAnalysisTest, MaxResidenceAggregates) {
  TraceLog log;
  log.record(0.0, TraceEventKind::kRelease, 1);
  log.record(1.0, TraceEventKind::kStageDeparture, 1, 0);
  log.record(1.5, TraceEventKind::kStageDeparture, 1, 1);
  log.record(1.5, TraceEventKind::kComplete, 1, 0);
  log.record(0.0, TraceEventKind::kRelease, 2);
  log.record(0.5, TraceEventKind::kStageDeparture, 2, 0);
  log.record(3.5, TraceEventKind::kStageDeparture, 2, 1);
  log.record(3.5, TraceEventKind::kComplete, 2, 0);
  const auto m = max_stage_residence(log, 2);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 1.0);  // task 1
  EXPECT_DOUBLE_EQ(m[1], 3.0);  // task 2
}

TEST(TraceAnalysisTest, RuntimeTraceMatchesKnownTimeline) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 2, nullptr);
  TraceLog log;
  runtime.set_trace(&log);
  core::TaskSpec spec;
  spec.id = 1;
  spec.deadline = 10.0;
  spec.stages.resize(2);
  spec.stages[0].compute = 1.0;
  spec.stages[1].compute = 2.0;
  sim.at(0.0, [&] { runtime.start_task(spec, 10.0); });
  sim.run();
  const auto r = stage_residence_times(log, 1, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.0);
}

// Per-stage Theorem 1 validation: every observed stage residence is
// bounded by f(U_peak_j) * D_max — a strictly sharper check than the
// end-to-end sum used in theorem_validation_test.
TEST(TraceAnalysisTest, PerStageResidenceRespectsTheorem1) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      3, 10 * kMilli, 1.4, 40.0);
  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, 4242);
  core::SyntheticUtilizationTracker tracker(sim, 3);
  PipelineRuntime runtime(sim, 3, &tracker);
  TraceLog log;
  runtime.set_trace(&log);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(3));

  std::vector<double> peak(3, 0.0);
  Duration max_deadline = 0;
  std::function<void()> pump = [&] {
    const Time t = sim.now() + gen.next_interarrival();
    if (t > 30.0) return;
    sim.at(t, [&] {
      const auto spec = gen.next_task();
      if (controller.try_admit(spec, sim.now()).admitted) {
        const auto u = tracker.utilizations();
        for (std::size_t j = 0; j < 3; ++j) {
          peak[j] = std::max(peak[j], u[j]);
        }
        max_deadline = std::max(max_deadline, spec.deadline);
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();

  ASSERT_GT(runtime.completed(), 200u);
  const auto max_residence = max_stage_residence(log, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    const Duration bound =
        core::predict_stage_delay(peak[j], max_deadline);
    EXPECT_LE(max_residence[j], bound + 1e-9) << "stage " << j;
    EXPECT_GT(max_residence[j], 0.0);
  }
}

}  // namespace
}  // namespace frap::pipeline
