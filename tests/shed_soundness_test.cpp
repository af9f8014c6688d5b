// Deterministic shedding-soundness regressions. A task that has already
// consumed processor time must never be shed: its past interference is
// physical, but shedding would erase its synthetic-utilization contribution
// and let the controller over-admit (docs/THEORY.md). The production wiring
// is SheddingAdmissionController::set_shed_filter with
// !PipelineRuntime::task_started_executing; these scenarios pin down the
// exact victim selection, hand-computed, with zero randomness.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"

namespace frap::pipeline {
namespace {

core::TaskSpec make_task(std::uint64_t id, Duration deadline,
                         std::vector<Duration> computes, double importance) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = deadline;
  spec.importance = importance;
  for (Duration c : computes) {
    core::StageDemand d;
    d.compute = c;
    spec.stages.push_back(d);
  }
  return spec;
}

// Runtime + tracker + shedding admission with the soundness filter, the
// production wiring of the three components.
struct ShedHarness {
  explicit ShedHarness(std::size_t stages)
      : tracker(sim, stages),
        runtime(sim, stages, &tracker),
        admission(sim, tracker,
                  core::FeasibleRegion::deadline_monotonic(stages)),
        shedder(admission, [this](std::uint64_t id) {
          shed_ids.push_back(id);
          runtime.abort_task(id);
        }) {
    shedder.set_shed_filter([this](std::uint64_t id) {
      return !runtime.task_started_executing(id);
    });
    runtime.set_on_task_complete(
        [this](const core::TaskSpec&, Duration, bool miss) {
          ++completed;
          if (miss) ++missed;
        });
  }

  void submit(const core::TaskSpec& spec) {
    if (shedder.try_admit(spec, sim.now()).admitted) {
      runtime.start_task(spec, sim.now() + spec.deadline);
    }
  }

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  PipelineRuntime runtime;
  core::AdmissionController admission;
  core::SheddingAdmissionController shedder;
  std::vector<std::uint64_t> shed_ids;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
};

// A (executing, low importance) and B (queued behind A, low importance) are
// both cheaper than the important arrival C. Without the filter the shedder
// would pick A first (FIFO at equal importance); with it, A is skipped
// because it already ran and B — which never got the processor — is the
// victim. Everyone that runs meets its deadline.
TEST(ShedSoundnessTest, ExecutingTaskIsSkippedQueuedTaskIsShed) {
  ShedHarness h(2);

  h.sim.at(0.0, [&] {
    // A: u = (0.3, 0.05). Starts executing stage 0 immediately.
    h.submit(make_task(1, 1.0, {0.3, 0.05}, 1.0));
  });
  h.sim.at(0.1, [&] {
    // B: u = (0.15, 0.15). DM priority 2.0 > A's 1.0: queued, never runs.
    h.submit(make_task(2, 2.0, {0.3, 0.3}, 1.0));
    EXPECT_TRUE(h.runtime.task_started_executing(1));
    EXPECT_FALSE(h.runtime.task_started_executing(2));
  });
  h.sim.at(0.2, [&] {
    // C: u = (0.2, ~0.056). With A and B the region is exceeded
    // (f(0.65) alone > 1); after shedding B it fits (lhs ~0.86 < 1).
    h.submit(make_task(3, 0.9, {0.18, 0.05}, 9.0));
  });
  h.sim.run();

  // Only B was shed; A was skipped by the filter even though it is the
  // FIFO-first victim at the lowest importance.
  EXPECT_EQ(h.shed_ids, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(h.shedder.tasks_shed(), 1u);
  EXPECT_EQ(h.runtime.aborted(), 1u);
  // A and C both complete, no deadline misses.
  EXPECT_EQ(h.completed, 2u);
  EXPECT_EQ(h.missed, 0u);
  EXPECT_EQ(h.runtime.misses().hits(), 0u);
}

// When the only shedding candidate has already executed, the important
// arrival is rejected rather than unsoundly making room.
TEST(ShedSoundnessTest, ImportantArrivalRejectedWhenOnlyVictimExecuted) {
  ShedHarness h(2);

  h.sim.at(0.0, [&] {
    h.submit(make_task(1, 1.0, {0.35, 0.35}, 1.0));  // lhs ~0.888, admitted
  });
  bool c_admitted = true;
  h.sim.at(0.1, [&] {
    EXPECT_TRUE(h.runtime.task_started_executing(1));
    c_admitted = h.shedder.try_admit(make_task(3, 1.0, {0.3, 0.3}, 9.0),
                                     h.sim.now())
                     .admitted;
  });
  h.sim.run();

  EXPECT_FALSE(c_admitted);
  EXPECT_TRUE(h.shed_ids.empty());
  EXPECT_EQ(h.shedder.tasks_shed(), 0u);
  EXPECT_EQ(h.completed, 1u);
  EXPECT_EQ(h.missed, 0u);
}

// Deterministic overload storm: a fixed arrival pattern of alternating
// importance at ~2x capacity. Shedding must fire, and with the
// started-executing filter every task that runs to completion meets its
// deadline.
TEST(ShedSoundnessTest, DeterministicOverloadStormHasZeroMisses) {
  ShedHarness h(2);

  std::uint64_t next_id = 1;
  std::function<void()> pump = [&] {
    const Time t = h.sim.now() + 0.004;  // 250 arrivals/s, ~200% load
    if (t > 10.0) return;
    h.sim.at(t, [&] {
      const std::uint64_t id = next_id++;
      const double importance = (id % 3 == 0) ? 5.0 : 1.0;
      const Duration deadline = 1.0 + 0.1 * static_cast<double>(id % 11);
      const Duration c0 = 0.004 + 0.001 * static_cast<double>(id % 5);
      const Duration c1 = 0.004 + 0.001 * static_cast<double>(id % 7);
      h.submit(make_task(id, deadline, {c0, c1}, importance));
      pump();
    });
  };
  pump();
  h.sim.run();

  EXPECT_GT(h.completed, 500u);
  EXPECT_GT(h.shedder.tasks_shed(), 0u);
  EXPECT_EQ(h.missed, 0u);
  h.tracker.verify_lhs_cache(1e-9);
}

}  // namespace
}  // namespace frap::pipeline
