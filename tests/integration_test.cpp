// End-to-end soundness tests: the paper's central claim is that as long as
// the admission controller keeps the per-stage synthetic utilizations inside
// the feasible region, NO admitted task misses its end-to-end deadline.
// These tests run full simulations (workload -> admission -> preemptive
// pipeline execution) and assert a zero miss ratio, across pipeline lengths,
// loads, resolutions, seeds, scheduling policies, and blocking.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/experiment.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::pipeline {
namespace {

ExperimentConfig base_config(std::size_t stages, double load,
                             double resolution, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.workload = workload::PipelineWorkloadConfig::balanced(
      stages, 10 * kMilli, load, resolution);
  cfg.seed = seed;
  cfg.sim_duration = 60.0;
  cfg.warmup = 5.0;
  return cfg;
}

// ------------------------- the theorem: no misses under exact admission ---

using SoundnessParams = std::tuple<std::size_t /*stages*/, double /*load*/,
                                   double /*resolution*/, std::uint64_t>;

class SoundnessTest : public ::testing::TestWithParam<SoundnessParams> {};

TEST_P(SoundnessTest, ExactAdmissionNeverMissesDeadlines) {
  const auto [stages, load, resolution, seed] = GetParam();
  auto cfg = base_config(stages, load, resolution, seed);
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.completed, 100u) << "experiment too small to be meaningful";
  EXPECT_EQ(r.miss_ratio, 0.0)
      << "stages=" << stages << " load=" << load << " res=" << resolution
      << " seed=" << seed;
  // Every admitted task must eventually complete (pipeline drains).
  EXPECT_EQ(r.completed, r.admitted);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SoundnessTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5),
                       ::testing::Values(0.8, 1.2, 2.0),
                       ::testing::Values(20.0, 100.0),
                       ::testing::Values<std::uint64_t>(1, 42)));

// Random-priority policy with the alpha-scaled region is also sound.
class RandomPolicyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPolicyTest, AlphaRegionKeepsRandomPrioritySound) {
  auto cfg = base_config(2, 1.5, 50.0, GetParam());
  cfg.priority = PriorityMode::kRandom;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.completed, 100u);
  EXPECT_EQ(r.miss_ratio, 0.0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPolicyTest,
                         ::testing::Values<std::uint64_t>(3, 7, 11, 19));

// ------------------------------------------------------- sanity numbers ---

TEST(IntegrationTest, AdmissionControlActuallyRejectsAtOverload) {
  auto cfg = base_config(2, 2.0, 100.0, 5);
  const auto r = run_experiment(cfg);
  EXPECT_LT(r.acceptance_ratio, 0.9);
  EXPECT_GT(r.acceptance_ratio, 0.2);
}

TEST(IntegrationTest, UtilizationIsHighAtFullLoad) {
  // Paper Sec. 4.1: "when the input load is 100% of stage capacity, the
  // average stage utilization after admission control is more than 80%".
  auto cfg = base_config(2, 1.0, 100.0, 5);
  cfg.sim_duration = 120.0;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.avg_stage_utilization, 0.75);
}

TEST(IntegrationTest, NoAdmissionControlMissesAtOverload) {
  // Without admission control an overloaded pipeline must miss deadlines —
  // this validates that the zero-miss results above are not vacuous.
  auto cfg = base_config(2, 1.5, 100.0, 5);
  cfg.admission = AdmissionMode::kNone;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.miss_ratio, 0.05);
}

TEST(IntegrationTest, IdleResetRaisesUtilization) {
  // Ablation A1: disabling the idle reset makes admission more pessimistic.
  auto with = base_config(2, 1.2, 100.0, 9);
  auto without = with;
  without.idle_reset = false;
  const auto r_with = run_experiment(with);
  const auto r_without = run_experiment(without);
  EXPECT_GT(r_with.avg_stage_utilization,
            r_without.avg_stage_utilization + 0.05);
  // Both are still sound.
  EXPECT_EQ(r_with.miss_ratio, 0.0);
  EXPECT_EQ(r_without.miss_ratio, 0.0);
}

TEST(IntegrationTest, DeadlineSplitBaselineIsSoundButConservative) {
  auto ours = base_config(2, 1.2, 100.0, 13);
  auto split = ours;
  split.admission = AdmissionMode::kDeadlineSplit;
  const auto r_ours = run_experiment(ours);
  const auto r_split = run_experiment(split);
  EXPECT_EQ(r_split.miss_ratio, 0.0);
  EXPECT_GT(r_ours.avg_stage_utilization, r_split.avg_stage_utilization);
}

TEST(IntegrationTest, ApproximateAdmissionHasLowMissRatioAtHighResolution) {
  // Paper Sec. 4.4 / Fig. 7: with high task resolution, admission by mean
  // computation times keeps the miss ratio near zero.
  auto cfg = base_config(2, 1.2, 200.0, 17);
  cfg.admission = AdmissionMode::kApproximate;
  const auto r = run_experiment(cfg);
  EXPECT_LT(r.miss_ratio, 0.01);
}

TEST(IntegrationTest, WaitingAdmissionStaysSound) {
  // Waiting lets arrivals catch a capacity release within their patience.
  // On heterogeneous workloads strict FIFO can trade a little acceptance
  // for fairness (head-of-line blocking), so the hard guarantees here are
  // soundness and no acceptance collapse; the TSCE bench shows the
  // capacity gain on the paper's homogeneous track workload.
  auto no_wait = base_config(2, 1.5, 100.0, 21);
  auto wait = no_wait;
  wait.patience = 50 * kMilli;
  const auto r_no_wait = run_experiment(no_wait);
  const auto r_wait = run_experiment(wait);
  EXPECT_GE(r_wait.acceptance_ratio, r_no_wait.acceptance_ratio - 0.05);
  EXPECT_EQ(r_wait.miss_ratio, 0.0);
  EXPECT_EQ(r_wait.completed, r_wait.admitted);
}

TEST(IntegrationTest, ImbalanceShiftsLoadToBottleneck) {
  // Sec. 4.3: the admission controller exploits imbalance; the bottleneck
  // stage of an imbalanced pipeline runs hotter than a balanced stage.
  ExperimentConfig balanced = base_config(2, 1.2, 100.0, 25);
  ExperimentConfig imbalanced = balanced;
  imbalanced.workload.mean_compute = {10 * kMilli, 2.5 * kMilli};
  const auto r_bal = run_experiment(balanced);
  const auto r_imb = run_experiment(imbalanced);
  EXPECT_GT(r_imb.bottleneck_utilization, r_bal.bottleneck_utilization);
  EXPECT_EQ(r_imb.miss_ratio, 0.0);
}

TEST(IntegrationTest, SheddingAtOverloadKeepsSurvivorsSound) {
  // Two importance classes at combined overload; the shedding controller
  // aborts low-importance tasks to make room. Every task that RUNS TO
  // COMPLETION must still meet its deadline — shedding only removes load.
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, 2);
  PipelineRuntime runtime(sim, 2, &tracker);
  core::AdmissionController admission(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));
  core::SheddingAdmissionController shedder(
      admission, [&](std::uint64_t id) { runtime.abort_task(id); });
  // Soundness requires shedding only tasks that never executed (see the
  // ShedFilter documentation): without this filter a handful of misses
  // appear at overload.
  shedder.set_shed_filter([&](std::uint64_t id) {
    return !runtime.task_started_executing(id);
  });

  std::uint64_t missed = 0;
  std::uint64_t completed = 0;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec&, Duration, bool miss) {
        ++completed;
        if (miss) ++missed;
      });

  util::Rng rng(77);
  std::uint64_t next_id = 1;
  std::function<void()> pump = [&] {
    const Time t = sim.now() + rng.exponential(0.004);  // 250/s, ~200% load
    if (t > 30.0) return;
    sim.at(t, [&] {
      core::TaskSpec spec;
      spec.id = next_id++;
      spec.deadline = rng.uniform(1.0, 3.0);
      spec.importance = rng.bernoulli(0.3) ? 5.0 : 1.0;
      spec.stages.resize(2);
      spec.stages[0].compute = rng.exponential(8 * kMilli);
      spec.stages[1].compute = rng.exponential(8 * kMilli);
      if (shedder.try_admit(spec, sim.now()).admitted) {
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();

  EXPECT_GT(completed, 500u);
  EXPECT_GT(shedder.tasks_shed(), 0u);  // shedding actually happened
  EXPECT_EQ(missed, 0u);
}

TEST(IntegrationTest, UnfilteredSheddingCanMiss) {
  // Documents the soundness caveat (docs/THEORY.md): shedding tasks that
  // already consumed processor time rewinds the synthetic-utilization
  // ledger while their interference remains physical — survivors can
  // miss. The run is deterministic, so the misses are stable.
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, 2);
  PipelineRuntime runtime(sim, 2, &tracker);
  core::AdmissionController admission(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));
  core::SheddingAdmissionController shedder(
      admission, [&](std::uint64_t id) { runtime.abort_task(id); });
  // NO shed filter: the paper's unrestricted formulation.

  std::uint64_t missed = 0;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec&, Duration, bool miss) {
        if (miss) ++missed;
      });

  util::Rng rng(77);
  std::uint64_t next_id = 1;
  std::function<void()> pump = [&] {
    const Time t = sim.now() + rng.exponential(0.004);
    if (t > 30.0) return;
    sim.at(t, [&] {
      core::TaskSpec spec;
      spec.id = next_id++;
      spec.deadline = rng.uniform(1.0, 3.0);
      spec.importance = rng.bernoulli(0.3) ? 5.0 : 1.0;
      spec.stages.resize(2);
      spec.stages[0].compute = rng.exponential(8 * kMilli);
      spec.stages[1].compute = rng.exponential(8 * kMilli);
      if (shedder.try_admit(spec, sim.now()).admitted) {
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();

  EXPECT_GT(missed, 0u);  // the caveat is real (fixed by the shed filter)
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const auto a = run_experiment(base_config(3, 1.0, 100.0, 31));
  const auto b = run_experiment(base_config(3, 1.0, 100.0, 31));
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.avg_stage_utilization, b.avg_stage_utilization);
}

TEST(IntegrationTest, HigherResolutionRaisesUtilization) {
  // Fig. 5's shape: higher resolution -> higher post-admission utilization.
  auto low = base_config(2, 1.2, 5.0, 37);
  auto high = base_config(2, 1.2, 200.0, 37);
  const auto r_low = run_experiment(low);
  const auto r_high = run_experiment(high);
  EXPECT_GT(r_high.avg_stage_utilization, r_low.avg_stage_utilization);
}

}  // namespace
}  // namespace frap::pipeline
