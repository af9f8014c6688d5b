// Differential soundness battery for the long-path DAG admission bound
// (docs/dag_bounds.md):
//
//   1. ZERO MISSES — every task the long-path controller admits is replayed
//      through the DAG runtime under a RANDOM fixed-priority order (the
//      adversarial setting where the critical-path test must pay
//      alpha = D_min/D_max) and must meet its end-to-end deadline.
//   2. DOMINANCE — on the same tracker state, every task the critical-path
//      test admits is also admitted by the long-path test (the long-path
//      region contains the critical-path region), and strictly more tasks
//      are admitted overall. The critical-path test is the evaluator's
//      ratio-1 mode at the worst-case alpha; the frozen raw-graph
//      evaluator it replaced is compared against it in
//      dag_critical_path_differential_test.cpp.
//
// The sweep covers >= 10k randomized DAGs (layered and Erdős–Rényi) across
// seeds; a seeded fixture pins exact admit counts so any change in either
// bound's behaviour is a loud diff, not a silent drift.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

constexpr std::size_t kResources = 5;
constexpr Duration kDeadlineMin = 0.5;
constexpr Duration kDeadlineMax = 2.0;
// The critical-path test under an arbitrary fixed-priority order must use
// the worst-case urgency-inversion parameter (Sec. 3.2).
// frap-lint: allow(unsafe-division) -- constexpr ratio of two positive
// literals; no runtime deadline can reach this denominator.
constexpr double kAlpha = kDeadlineMin / kDeadlineMax;

struct EpisodeStats {
  std::uint64_t offered = 0;
  std::uint64_t long_admits = 0;
  std::uint64_t crit_admits = 0;
  std::uint64_t crit_only = 0;  // dominance violations: crit admit, long reject
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
};

workload::RandomDagConfig episode_config(util::Rng& rng) {
  workload::RandomDagConfig cfg;
  cfg.kind = rng.bernoulli(0.5) ? workload::RandomDagConfig::Kind::kLayered
                                : workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(3, 10));
  cfg.num_resources = kResources;
  cfg.min_compute = 4 * kMilli;
  cfg.max_compute = 20 * kMilli;
  cfg.edge_prob = 0.3;
  cfg.extra_edge_prob = 0.25;
  return cfg;
}

// Streams `target_offered` random DAG arrivals through a long-path
// controller + DAG runtime; evaluates the critical-path test pointwise on
// the same tracker state (no commit) for the dominance comparison.
EpisodeStats run_episode(std::uint64_t seed, std::uint64_t target_offered) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  pipeline::DagRuntime runtime(sim, kResources, &tracker);
  core::TaskGraphShapeRegistry registry;
  // Stage cap = alpha: the victim guard matches the per-resource state
  // envelope the critical-path test enforces, which is what makes the
  // dominance direction below exact (docs/dag_bounds.md).
  core::LongPathEvaluator long_eval(
      std::vector<double>(kResources, kDeadlineMax), {}, kAlpha);
  core::GraphAdmissionController controller(sim, tracker,
                                            std::move(long_eval));
  auto crit_eval = core::LongPathEvaluator::ratio_one(kResources, kAlpha, {});

  // Random fixed priority per task: deliberately NOT deadline-monotonic, so
  // only priority-agnostic bounds may claim zero misses.
  runtime.set_priority_policy([](const core::GraphTaskSpec& s) {
    return static_cast<sched::PriorityValue>(
        (s.id * 1103515245ull + 12345ull) % 1000ull);
  });

  EpisodeStats stats;
  runtime.set_on_task_complete(
      [&](const core::GraphTaskSpec&, Duration, bool missed) {
        ++stats.completed;
        if (missed) ++stats.missed;
      });

  util::Rng rng(seed);
  const double lambda = 400.0;  // arrivals/sec: overload, the region binds
  std::function<void()> pump = [&] {
    if (stats.offered >= target_offered) return;
    sim.at(sim.now() + rng.exponential(1.0 / lambda), [&] {
      ++stats.offered;
      const auto cfg = episode_config(rng);
      const Duration deadline = rng.uniform(kDeadlineMin, kDeadlineMax);
      const auto raw = workload::random_dag(rng, cfg, stats.offered, deadline);
      const auto spec = registry.canonicalize(raw);

      // Critical-path test, pointwise on the current tracker state.
      auto u = tracker.utilizations();
      const auto add = spec.resource_contributions(kResources);
      for (std::size_t k = 0; k < kResources; ++k) u[k] += add[k];
      const bool crit_admit = core::FeasibleRegion::admits_lhs(
          crit_eval.lhs_from_snapshot(spec, u),
          core::LongPathEvaluator::kDelayBudget);

      const auto d = controller.try_admit(spec, sim.now());
      if (d.admitted) {
        ++stats.long_admits;
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      if (crit_admit) {
        ++stats.crit_admits;
        if (!d.admitted) ++stats.crit_only;
      }
      pump();
    });
  };
  pump();
  sim.run();
  return stats;
}

TEST(DagBoundDifferentialTest, TenThousandDagSweepZeroMissesAndDominance) {
  EpisodeStats total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = run_episode(seed, 1800);
    EXPECT_EQ(s.missed, 0u) << "seed=" << seed;
    EXPECT_EQ(s.crit_only, 0u) << "seed=" << seed;
    EXPECT_EQ(s.completed, s.long_admits) << "seed=" << seed;
    total.offered += s.offered;
    total.long_admits += s.long_admits;
    total.crit_admits += s.crit_admits;
    total.crit_only += s.crit_only;
    total.completed += s.completed;
    total.missed += s.missed;
  }
  EXPECT_GE(total.offered, 10000u);
  EXPECT_EQ(total.missed, 0u);
  EXPECT_EQ(total.crit_only, 0u);
  // Strict superset, with real margin: the per-task D_n / per-resource
  // ceiling constants beat the global worst-case alpha by construction.
  EXPECT_GT(total.long_admits, total.crit_admits + total.offered / 20);
}

TEST(DagBoundDifferentialTest, SeededFixturePinsExactAdmitCounts) {
  const auto s = run_episode(42, 2000);
  EXPECT_EQ(s.offered, 2000u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.crit_only, 0u);
  // Pinned counts: a change to either bound, the generator, or the
  // canonicalization shifts these and must be a conscious decision.
  EXPECT_EQ(s.long_admits, 342u);
  EXPECT_EQ(s.crit_admits, 99u);
  EXPECT_GT(s.long_admits, s.crit_admits);
}

TEST(DagBoundDifferentialTest, GeneratedTasksRespectCeilingContract) {
  util::Rng rng(7);
  core::LongPathEvaluator eval(std::vector<double>(kResources, kDeadlineMax),
                               {}, core::LongPathEvaluator::kNoStageCap);
  core::TaskGraphShapeRegistry registry;
  for (int i = 0; i < 200; ++i) {
    const auto cfg = episode_config(rng);
    const auto raw = workload::random_dag(
        rng, cfg, static_cast<std::uint64_t>(i + 1),
        rng.uniform(kDeadlineMin, kDeadlineMax));
    const auto spec = registry.canonicalize(raw);
    EXPECT_TRUE(eval.respects_ceilings(spec));
    EXPECT_TRUE(spec.valid(kResources));
  }
}

}  // namespace
}  // namespace frap
