// Differential test for the long-path evaluator's path-cap tier
// (docs/dag_bounds.md). On shapes whose profile set is capped, a path value
// that is neither admitted by the envelope nor rejected by a kept profile
// is settled by the path-cap knapsack bound when that bound is within
// budget, and by the exact DP otherwise. Over many near-budget states on
// capped Erdős–Rényi and layered shapes of 200–3000 nodes:
//
//   * every verdict equals the exact all-paths test;
//   * every path-cap admit reports a value at or above the exact one;
//   * the path-cap tier actually fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

constexpr std::size_t kResources = 6;
constexpr Duration kCeiling = 1.0;
constexpr double kBudget = core::LongPathEvaluator::kDelayBudget;

workload::RandomDagConfig capped_config(util::Rng& rng, std::size_t nodes) {
  workload::RandomDagConfig cfg;
  cfg.kind = rng.bernoulli(0.5) ? workload::RandomDagConfig::Kind::kLayered
                                : workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = nodes;
  cfg.num_resources = kResources;
  cfg.min_layers = 4;
  cfg.max_layers = 12;
  cfg.extra_edge_prob = 0.05;
  cfg.edge_prob = 4.0 / static_cast<double>(nodes);
  // ~0.02 of compute per task at every size, as in bench/dag_admission.
  cfg.min_compute = 0.01 / static_cast<double>(nodes);
  cfg.max_compute = 0.03 / static_cast<double>(nodes);
  return cfg;
}

TEST(DagPathCapTierTest, VerdictsMatchExactAndAdmitsBoundTheExactValue) {
  util::Rng rng(15);
  core::TaskGraphShapeRegistry registry;
  // `eval` answers like admission does; `ref` replays the with-task value
  // so its tier counts say which tier settled exactly that value.
  core::LongPathEvaluator eval(std::vector<double>(kResources, kCeiling), {},
                               core::LongPathEvaluator::kNoStageCap);
  core::LongPathEvaluator ref(std::vector<double>(kResources, kCeiling), {},
                              core::LongPathEvaluator::kNoStageCap);
  std::uint64_t path_cap_admits = 0;
  std::uint64_t dp_calls = 0;
  std::uint64_t admits = 0;
  std::uint64_t trials = 0;
  std::vector<double> by_resource(kResources);
  std::vector<double> scratch;

  for (const std::size_t nodes : {200, 500, 1000, 2000, 3000}) {
    for (int s = 0; s < 3; ++s) {
      core::GraphTaskSpec spec = registry.canonicalize(workload::random_dag(
          rng, capped_config(rng, nodes), 1, kCeiling));
      const core::TaskGraphShape& shape = *spec.shape;
      ASSERT_FALSE(shape.profiles_complete()) << nodes << " nodes";

      for (int trial = 0; trial < 120; ++trial) {
        ++trials;
        spec.deadline = rng.uniform(0.5, kCeiling);
        // Random per-resource f-terms scaled so the heaviest path lands
        // within +-15% of the budget: path value = scale * P(r) / D.
        for (double& r : by_resource) r = rng.uniform(0.2, 1.0);
        const double heaviest = shape.longest_path_weight(by_resource, scratch);
        const double scale =
            rng.uniform(0.85, 1.15) * spec.deadline / heaviest;
        sim::Simulator sim;
        core::SyntheticUtilizationTracker tracker(sim, kResources);
        std::vector<double> u(kResources);
        for (std::size_t k = 0; k < kResources; ++k) {
          u[k] = core::stage_delay_factor_inverse(scale * by_resource[k]);
        }
        tracker.add(1, u, 1e3);

        auto u_with = tracker.utilizations();
        const auto touched = shape.touched_resources();
        const auto& compute = spec.demands->resource_compute;
        const double inv_d = util::safe_inv(spec.deadline);
        for (std::size_t t = 0; t < touched.size(); ++t) {
          u_with[touched[t]] += compute[t] * inv_d;
        }

        const auto e = eval.evaluate(spec, tracker);
        const auto tiers_before = ref.tier_counts();
        const double replayed = ref.lhs_from_snapshot(spec, u_with);
        ASSERT_EQ(replayed, e.lhs_with_task);
        const double exact = ref.exact_lhs_from_snapshot(spec, u_with);

        ASSERT_EQ(e.admitted, core::FeasibleRegion::admits_lhs(exact, kBudget))
            << nodes << " nodes, trial " << trial;
        if (ref.tier_counts().path_cap_admit > tiers_before.path_cap_admit) {
          ++path_cap_admits;
          EXPECT_GE(e.lhs_with_task, exact);
        }
        dp_calls += ref.tier_counts().dp - tiers_before.dp;
        admits += e.admitted ? 1 : 0;
      }
    }
  }
  // Both verdicts occur, and both the new tier and the DP behind it fire.
  EXPECT_GT(admits, trials / 10);
  EXPECT_LT(admits, trials - trials / 10);
  EXPECT_GE(path_cap_admits, 100u);
  EXPECT_GT(dp_calls, 0u);
}

// Every path of a shape satisfies the caps the tier relies on: no path
// visits resource t more than path_caps()[t] times or holds more than
// max_path_nodes() nodes, and both caps are attained by some path.
TEST(DagPathCapTierTest, PathCapsBoundEveryPathAndAreTight) {
  util::Rng rng(16);
  core::TaskGraphShapeRegistry registry;
  std::vector<double> scratch;
  for (int i = 0; i < 40; ++i) {
    const auto spec = registry.canonicalize(workload::random_dag(
        rng, capped_config(rng, static_cast<std::size_t>(
                                    rng.uniform_int(20, 400))),
        1, kCeiling));
    const core::TaskGraphShape& shape = *spec.shape;
    const auto touched = shape.touched_resources();
    const auto caps = shape.path_caps();
    ASSERT_EQ(caps.size(), touched.size());
    // Weight 1 on every node: the longest path in nodes.
    std::vector<double> w(kResources, 1.0);
    EXPECT_EQ(shape.longest_path_weight(w, scratch),
              static_cast<double>(shape.max_path_nodes()));
    // Weight 1 on one resource: the most visits any path makes to it.
    for (std::size_t t = 0; t < touched.size(); ++t) {
      std::fill(w.begin(), w.end(), 0.0);
      w[touched[t]] = 1.0;
      EXPECT_EQ(shape.longest_path_weight(w, scratch),
                static_cast<double>(caps[t]));
    }
  }
}

}  // namespace
}  // namespace frap
