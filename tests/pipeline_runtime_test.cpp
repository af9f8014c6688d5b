#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/delay_bound.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "obs/stage_observer.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "workload/pipeline_workload.h"

namespace frap::pipeline {
namespace {

core::TaskSpec make_task(std::uint64_t id, Duration deadline,
                         std::vector<Duration> computes) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = deadline;
  for (Duration c : computes) {
    core::StageDemand d;
    d.compute = c;
    spec.stages.push_back(d);
  }
  return spec;
}

struct Done {
  std::uint64_t id;
  Duration response;
  bool missed;
};

class PipelineRuntimeTest : public ::testing::Test {
 protected:
  void build(std::size_t stages, bool with_tracker = true) {
    if (with_tracker) {
      tracker_.emplace(sim_, stages);
    }
    runtime_.emplace(sim_, stages,
                     with_tracker ? &tracker_.value() : nullptr);
    runtime_->set_on_task_complete(
        [this](const core::TaskSpec& s, Duration r, bool m) {
          done_.push_back({s.id, r, m});
        });
  }

  sim::Simulator sim_;
  std::optional<core::SyntheticUtilizationTracker> tracker_;
  std::optional<PipelineRuntime> runtime_;
  std::vector<Done> done_;
};

TEST_F(PipelineRuntimeTest, TaskTraversesAllStagesInOrder) {
  build(3);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0, 2.0, 3.0}), 10.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].id, 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 6.0);
  EXPECT_FALSE(done_[0].missed);
  EXPECT_EQ(runtime_->completed(), 1u);
}

TEST_F(PipelineRuntimeTest, DepartureFromStageJIsArrivalAtJPlus1) {
  build(2);
  // Two tasks; the second is more urgent and overtakes on stage 1 but the
  // pipeline still honors per-stage precedence for each task.
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {2.0, 2.0}), 10.0);
  });
  sim_.at(0.5, [&] {
    runtime_->start_task(make_task(2, 5.0, {1.0, 1.0}), 5.5);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 2u);
  // Task 2 preempts on stage 0 at t=0.5, finishes stage 0 at 1.5, stage 1
  // at 2.5. Task 1 resumes stage 0 [1.5, 3.0), stage 1 [3.0, 5.0).
  EXPECT_EQ(done_[0].id, 2u);
  EXPECT_DOUBLE_EQ(done_[0].response, 2.0);
  EXPECT_EQ(done_[1].id, 1u);
  EXPECT_DOUBLE_EQ(done_[1].response, 5.0);
}

TEST_F(PipelineRuntimeTest, MissDetection) {
  build(1);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 1.0, {2.0}), 1.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_TRUE(done_[0].missed);
  EXPECT_DOUBLE_EQ(runtime_->misses().ratio(), 1.0);
}

TEST_F(PipelineRuntimeTest, ExactDeadlineIsNotAMiss) {
  build(1);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 2.0, {2.0}), 2.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_FALSE(done_[0].missed);
}

TEST_F(PipelineRuntimeTest, DeadlineMonotonicOrderingAcrossStages) {
  build(1);
  // Same arrival instant: shorter deadline runs first under DM.
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0}), 10.0);
    runtime_->start_task(make_task(2, 1.0, {0.5}), 1.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 2u);
  EXPECT_EQ(done_[0].id, 2u);
}

TEST_F(PipelineRuntimeTest, CustomPriorityPolicy) {
  build(1);
  // Invert DM: larger deadline = more urgent.
  runtime_->set_priority_policy(
      [](const core::TaskSpec& s) { return -s.deadline; });
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0}), 10.0);
    runtime_->start_task(make_task(2, 1.0, {0.5}), 1.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 2u);
  EXPECT_EQ(done_[0].id, 1u);
}

TEST_F(PipelineRuntimeTest, TrackerSeesDeparturesAndIdle) {
  build(2);
  tracker_->add(1, std::vector<double>{0.5, 0.5}, 100.0);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 100.0, {1.0, 1.0}), 100.0);
  });
  sim_.run();
  // After the task departed both stages and both went idle, its
  // contribution is fully reset (long before the deadline).
  EXPECT_DOUBLE_EQ(tracker_->utilization(0), 0.0);
  EXPECT_DOUBLE_EQ(tracker_->utilization(1), 0.0);
}

TEST_F(PipelineRuntimeTest, RunsWithoutTracker) {
  build(2, /*with_tracker=*/false);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0, 1.0}), 10.0);
  });
  sim_.run();
  EXPECT_EQ(done_.size(), 1u);
}

TEST_F(PipelineRuntimeTest, AbortRemovesTaskMidPipeline) {
  build(2);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {2.0, 2.0}), 10.0);
  });
  sim_.at(1.0, [&] { runtime_->abort_task(1); });
  sim_.run();
  EXPECT_TRUE(done_.empty());
  EXPECT_EQ(runtime_->aborted(), 1u);
  EXPECT_EQ(runtime_->completed(), 0u);
  EXPECT_FALSE(runtime_->task_in_flight(1));
  // Stage 1 never saw the task.
  EXPECT_DOUBLE_EQ(runtime_->stage(1).meter().busy_time(0.0, 10.0), 0.0);
}

// A completion callback may start new tasks (here the next one, and one
// reusing the finished id): the finished id already reads not in flight,
// and the spec the callback holds stays intact while it starts tasks,
// because the finished task's slot is recycled only after it returns.
TEST_F(PipelineRuntimeTest, CompletionCallbackMayStartTasks) {
  build(2);
  std::vector<bool> in_flight_at_callback;
  runtime_->set_on_task_complete(
      [this, &in_flight_at_callback](const core::TaskSpec& s, Duration r,
                                     bool m) {
        const std::uint64_t id = s.id;
        const Duration deadline = s.deadline;
        const bool first_run = s.deadline < 50.0;
        in_flight_at_callback.push_back(runtime_->task_in_flight(id));
        if (first_run && id < 4) {
          runtime_->start_task(make_task(id + 1, 10.0 + id, {1.0, 2.0}),
                               sim_.now() + 10.0 + id);
        }
        if (first_run && id == 2) {
          runtime_->start_task(make_task(2, 50.0, {0.5, 0.5}),
                               sim_.now() + 50.0);
        }
        EXPECT_EQ(s.id, id);
        EXPECT_EQ(s.deadline, deadline);
        done_.push_back({id, r, m});
      });
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0, 2.0}), 10.0);
  });
  sim_.run();
  // Task 1 ends at 3; tasks 2 and 3 start at 3 and 6 and take 3 each. The
  // reused id 2 (D = 50) starts at 6 behind task 3 (D = 12) and finishes
  // at 9.5 on stage 1; task 4 starts at 9.
  ASSERT_EQ(done_.size(), 5u);
  const std::vector<std::uint64_t> ids = {1, 2, 3, 2, 4};
  const std::vector<Duration> responses = {3.0, 3.0, 3.0, 3.5, 3.0};
  for (std::size_t i = 0; i < done_.size(); ++i) {
    EXPECT_EQ(done_[i].id, ids[i]) << i;
    EXPECT_DOUBLE_EQ(done_[i].response, responses[i]) << i;
    EXPECT_FALSE(done_[i].missed) << i;
  }
  EXPECT_EQ(in_flight_at_callback, std::vector<bool>(5, false));
  EXPECT_EQ(runtime_->started(), 5u);
  EXPECT_EQ(runtime_->completed(), 5u);
}

// An aborted task's slot goes back on the free list at once. The next task
// reuses it: no completion of the aborted task fires, and the new task
// reads as not started while it waits, although the slot's old jobs ran.
TEST_F(PipelineRuntimeTest, AbortedSlotIsReusedWithoutStaleCompletion) {
  build(2);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0, 3.0}), 10.0);
    runtime_->start_task(make_task(2, 20.0, {2.0, 1.0}), 20.0);
  });
  sim_.at(2.0, [&] {
    // Task 1 runs on stage 1, task 2 on stage 0.
    runtime_->abort_task(1);
    // Task 3 queues behind task 2 in the slot task 1 left.
    runtime_->start_task(make_task(3, 30.0, {1.0, 1.0}), 32.0);
    EXPECT_TRUE(runtime_->task_in_flight(3));
    EXPECT_FALSE(runtime_->task_in_flight(1));
    EXPECT_FALSE(runtime_->task_started_executing(3));
    EXPECT_TRUE(runtime_->task_started_executing(2));
  });
  sim_.at(3.5, [&] {
    // Task 2 is on stage 1, task 3 on stage 0: abort task 3 mid-run and
    // reuse its slot once more.
    EXPECT_TRUE(runtime_->task_started_executing(3));
    runtime_->abort_task(3);
    runtime_->start_task(make_task(4, 5.0, {0.25, 0.25}), 8.5);
  });
  sim_.run();
  // Task 4 (D = 5) runs stage 0 on [3.5, 3.75] and preempts task 2
  // (D = 20) on stage 1, finishing at 4; task 2 resumes and ends at 4.25.
  ASSERT_EQ(done_.size(), 2u);
  EXPECT_EQ(done_[0].id, 4u);
  EXPECT_DOUBLE_EQ(done_[0].response, 0.5);
  EXPECT_EQ(done_[1].id, 2u);
  EXPECT_DOUBLE_EQ(done_[1].response, 4.25);
  EXPECT_EQ(runtime_->aborted(), 2u);
  EXPECT_EQ(runtime_->started(), 4u);
  EXPECT_EQ(runtime_->completed(), 2u);
  // Stage 0 ran tasks 1, 2, 3 and 4 back to back on [0, 3.75]; stage 1
  // ran task 1 on [1, 2] and tasks 2 and 4 on [3, 4.25].
  EXPECT_DOUBLE_EQ(runtime_->stage(0).meter().busy_time(0.0, 10.0), 3.75);
  EXPECT_DOUBLE_EQ(runtime_->stage(1).meter().busy_time(0.0, 10.0), 2.25);
}

TEST_F(PipelineRuntimeTest, AbortUnknownTaskIsNoop) {
  build(1);
  runtime_->abort_task(42);
  EXPECT_EQ(runtime_->aborted(), 0u);
}

TEST_F(PipelineRuntimeTest, StageUtilizationsMeasureBusyFractions) {
  build(2);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 100.0, {2.0, 1.0}), 100.0);
  });
  sim_.run();
  sim_.run_until(10.0);
  const auto u = runtime_->stage_utilizations(0.0, 10.0);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 0.2);
  EXPECT_DOUBLE_EQ(u[1], 0.1);
}

TEST(PipelineRuntimePoolTest, StageUtilizationCountsEveryProcessor) {
  // Two processors per stage with unequal loads: 4 s on the first, 2 s on
  // the second. The stage's busy fraction over [0, 10] is 6 / (2 * 10),
  // not the first processor's 0.4.
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 1, nullptr, sched::fixed_priority_policy(), 2);
  sim.at(0.0, [&] {
    runtime.start_task(make_task(1, 100.0, {4.0}), 100.0);
    runtime.start_task(make_task(2, 100.0, {2.0}), 100.0);
  });
  sim.run();
  sim.run_until(10.0);
  const auto u = runtime.stage_utilizations(0.0, 10.0);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.3);
  EXPECT_DOUBLE_EQ(runtime.stage(0).meter(0).busy_time(0.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(runtime.stage(0).meter(1).busy_time(0.0, 10.0), 2.0);
}

TEST_F(PipelineRuntimeTest, ManyConcurrentTasksAllComplete) {
  build(3);
  for (int i = 0; i < 100; ++i) {
    const auto id = static_cast<std::uint64_t>(i + 1);
    sim_.at(0.01 * i, [this, id] {
      runtime_->start_task(make_task(id, 1000.0, {0.01, 0.01, 0.01}),
                           sim_.now() + 1000.0);
    });
  }
  sim_.run();
  EXPECT_EQ(done_.size(), 100u);
  EXPECT_EQ(runtime_->completed(), 100u);
  EXPECT_DOUBLE_EQ(runtime_->misses().ratio(), 0.0);
}

TEST_F(PipelineRuntimeTest, ResponseStatsAccumulate) {
  build(1);
  sim_.at(0.0, [&] {
    runtime_->start_task(make_task(1, 10.0, {1.0}), 10.0);
  });
  sim_.at(5.0, [&] {
    runtime_->start_task(make_task(2, 10.0, {3.0}), 15.0);
  });
  sim_.run();
  EXPECT_EQ(runtime_->response_times().count(), 2u);
  EXPECT_DOUBLE_EQ(runtime_->response_times().mean(), 2.0);
  EXPECT_DOUBLE_EQ(runtime_->response_times().max(), 3.0);
}

// The runtime's lifecycle feed is the completion callback, aborted() and
// the StageObserver: release, per-stage departures and completion are all
// visible there.
TEST(TraceRuntimeTest, RuntimeEmitsLifecycleEvents) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 2, nullptr);
  obs::StageObserver observer(2);
  runtime.set_stage_observer(&observer);
  std::vector<Done> done;
  Time completed_at = -1;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec& s, Duration r, bool m) {
        done.push_back({s.id, r, m});
        completed_at = sim.now();
      });

  sim.at(0.0, [&] {
    runtime.start_task(make_task(42, 10.0, {1.0, 2.0}), 10.0);
    // Release: the task entered stage 0 at once.
    EXPECT_EQ(runtime.started(), 1u);
    EXPECT_EQ(observer.snapshot()[0].enqueued, 1u);
  });
  sim.run_until(1.5);
  // Departed stage 0 at t = 1, now queued on stage 1.
  auto snap = observer.snapshot();
  EXPECT_EQ(snap[0].departed, 1u);
  EXPECT_DOUBLE_EQ(snap[0].max_sojourn, 1.0);
  EXPECT_EQ(snap[1].enqueued, 1u);
  EXPECT_EQ(snap[1].queue_depth, 1u);
  EXPECT_TRUE(done.empty());
  sim.run();

  snap = observer.snapshot();
  EXPECT_EQ(snap[1].departed, 1u);
  EXPECT_DOUBLE_EQ(snap[1].max_sojourn, 2.0);  // departed stage 1 at t = 3
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 42u);
  EXPECT_DOUBLE_EQ(completed_at, 3.0);
  EXPECT_DOUBLE_EQ(done[0].response, 3.0);
  EXPECT_FALSE(done[0].missed);
  EXPECT_EQ(runtime.completed(), 1u);
  EXPECT_EQ(runtime.aborted(), 0u);
}

TEST(TraceRuntimeTest, MissAndShedAreRecorded) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 1, nullptr);
  obs::StageObserver observer(1);
  runtime.set_stage_observer(&observer);
  std::vector<Done> done;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec& s, Duration r, bool m) {
        done.push_back({s.id, r, m});
      });

  sim.at(0.0, [&] {
    runtime.start_task(make_task(1, 0.5, {1.0}), 0.5);    // late
    runtime.start_task(make_task(2, 10.0, {1.0}), 10.0);  // doomed
  });
  sim.at(0.2, [&] {
    runtime.abort_task(2);
    EXPECT_EQ(runtime.aborted(), 1u);  // the shed is counted at the abort
  });
  sim.run();

  EXPECT_EQ(runtime.aborted(), 1u);
  ASSERT_EQ(done.size(), 1u);  // the shed task never completes
  EXPECT_EQ(done[0].id, 1u);
  EXPECT_TRUE(done[0].missed);
  EXPECT_DOUBLE_EQ(runtime.misses().ratio(), 1.0);
  // The shed task still departs its stage, so the depth gauge conserves.
  const auto snap = observer.snapshot();
  EXPECT_EQ(snap[0].enqueued, 2u);
  EXPECT_EQ(snap[0].departed, 2u);
  EXPECT_EQ(snap[0].queue_depth, 0u);
}

TEST(TraceAnalysisTest, RuntimeTraceMatchesKnownTimeline) {
  sim::Simulator sim;
  PipelineRuntime runtime(sim, 2, nullptr);
  obs::StageObserver observer(2);
  runtime.set_stage_observer(&observer);
  sim.at(0.0, [&] {
    runtime.start_task(make_task(1, 10.0, {1.0, 2.0}), 10.0);
  });
  sim.run();
  // Per-stage residence L_0 = 1, L_1 = 2.
  const auto snap = observer.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].max_sojourn, 1.0);
  EXPECT_DOUBLE_EQ(snap[1].max_sojourn, 2.0);
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
  obs::StageObserver observer(3);
  runtime.set_stage_observer(&observer);
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
  ASSERT_EQ(runtime.completed(), runtime.started());
  const auto snap = observer.snapshot();
  for (std::size_t j = 0; j < 3; ++j) {
    const Duration bound =
        core::predict_stage_delay(peak[j], max_deadline);
    EXPECT_LE(snap[j].max_sojourn, bound + 1e-9) << "stage " << j;
    EXPECT_GT(snap[j].max_sojourn, 0.0);
  }
}

}  // namespace
}  // namespace frap::pipeline
