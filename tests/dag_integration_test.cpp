// End-to-end soundness of Theorem 2: randomized DAG tasks admitted by the
// critical-path region (the ratio-1 mode of the long-path evaluator at
// alpha = 1) and executed on the DAG runtime never miss their end-to-end
// deadlines.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap {
namespace {

// Random DAG: `n` nodes on `resources` resources, random forward edges.
core::GraphTaskSpec random_dag(std::uint64_t id, std::size_t resources,
                               double resolution, util::Rng& rng) {
  const std::size_t n =
      2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  core::GraphTaskSpec g;
  g.id = id;
  Duration total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    core::StageDemand d;
    d.compute = rng.exponential(10 * kMilli);
    total += d.compute;
    g.nodes.push_back(core::GraphNode{
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(resources) - 1)),
        d});
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.35)) g.edges.push_back(core::GraphEdge{i, j});
    }
  }
  // Deadline proportional to the graph's expected span.
  g.deadline = rng.uniform(0.5, 1.5) * resolution *
               (10 * kMilli) * static_cast<double>(n);
  return g;
}

struct DagRunStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
};

DagRunStats run_dag_soundness(std::size_t resources, double load,
                              double resolution, std::uint64_t seed) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, resources);
  pipeline::DagRuntime runtime(sim, resources, &tracker);
  core::GraphAdmissionController controller(
      sim, tracker, core::LongPathEvaluator::ratio_one(resources, 1.0, {}));
  core::TaskGraphShapeRegistry registry;

  DagRunStats stats;
  runtime.set_on_task_complete(
      [&](const core::GraphTaskSpec&, Duration, bool missed) {
        ++stats.completed;
        if (missed) ++stats.missed;
      });

  util::Rng rng(seed);
  // ~3.5 nodes/task, spread over `resources`: arrival rate for the target
  // per-resource load.
  const double nodes_per_task = 3.5;
  const double lambda = load * static_cast<double>(resources) /
                        (nodes_per_task * 10 * kMilli);
  const Duration sim_end = 30.0;
  std::uint64_t next_id = 1;

  std::function<void()> pump = [&] {
    const Time t = sim.now() + rng.exponential(1.0 / lambda);
    if (t > sim_end) return;
    sim.at(t, [&] {
      ++stats.offered;
      const auto spec = registry.canonicalize(
          random_dag(next_id++, resources, resolution, rng));
      if (controller.try_admit(spec, sim.now()).admitted) {
        ++stats.admitted;
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();
  return stats;
}

using DagParams = std::tuple<std::size_t, double, std::uint64_t>;

class DagSoundnessTest : public ::testing::TestWithParam<DagParams> {};

TEST_P(DagSoundnessTest, RandomDagsNeverMissUnderTheorem2Admission) {
  const auto [resources, load, seed] = GetParam();
  const auto stats = run_dag_soundness(resources, load, 30.0, seed);
  EXPECT_GT(stats.completed, 50u);
  EXPECT_EQ(stats.missed, 0u)
      << "resources=" << resources << " load=" << load << " seed=" << seed;
  EXPECT_EQ(stats.completed, stats.admitted);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DagSoundnessTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 6),
                       ::testing::Values(0.9, 1.6),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(DagSoundnessTest, OverloadIsAbsorbedByRejection) {
  const auto stats = run_dag_soundness(3, 2.5, 30.0, 77);
  EXPECT_LT(stats.admitted, stats.offered);
  EXPECT_EQ(stats.missed, 0u);
}

}  // namespace
}  // namespace frap
