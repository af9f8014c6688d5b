// Differential test for the long-path evaluator's bound tiers
// (docs/dag_bounds.md). On shapes whose profile set is capped, a path value
// is admitted when the kept profiles and the envelope knapsack (the dropped
// paths' componentwise-max profile, limited to their most nodes), rounded
// up, are within budget, rejected when a kept profile rounded down is over
// it, and settled by the exact DP otherwise. Over many near-budget states on
// capped Erdős–Rényi and layered shapes of 200–3000 nodes:
//
//   * every verdict equals the exact all-paths test;
//   * every envelope admit reports a value at or above the DP's, and every
//     kept reject one at or below it;
//   * the knapsack admits where the plain envelope dot product would not.
//
// A hand-built shape shows that gap in isolation, and a replay of an
// arrival stream over the benchmark's shape pool (100, 1k and 10k-node
// Erdős–Rényi DAGs) checks every admission decision against the exact DP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/admission.h"
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

// The envelope's plain dot product with per-resource weights: the bound the
// knapsack replaced.
double envelope_dot(const core::TaskGraphShape& shape,
                    const std::vector<double>& w_by_resource) {
  const auto touched = shape.touched_resources();
  double v = 0;
  for (const auto& e : shape.envelope()) {
    v += static_cast<double>(e.mult) * w_by_resource[touched[e.local]];
  }
  return v;
}

TEST(DagEnvelopeTierTest, VerdictsMatchExactAndBoundsBracketTheExactValue) {
  util::Rng rng(15);
  core::TaskGraphShapeRegistry registry;
  // `eval` answers like admission does; `ref` replays the with-task value
  // so its tier counts say which tier settled exactly that value.
  core::LongPathEvaluator eval(std::vector<double>(kResources, kCeiling), {},
                               core::LongPathEvaluator::kNoStageCap);
  core::LongPathEvaluator ref(std::vector<double>(kResources, kCeiling), {},
                              core::LongPathEvaluator::kNoStageCap);
  std::uint64_t envelope_admits = 0;
  std::uint64_t knapsack_only_admits = 0;  // the dot product is over budget
  std::uint64_t kept_rejects = 0;
  std::uint64_t dp_calls = 0;
  std::uint64_t admits = 0;
  std::uint64_t trials = 0;
  std::vector<double> by_resource(kResources);
  std::vector<double> w(kResources);
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
        const auto& tiers = ref.tier_counts();
        if (tiers.envelope_admit > tiers_before.envelope_admit) {
          ++envelope_admits;
          EXPECT_GE(e.lhs_with_task, exact);
          for (std::size_t k = 0; k < kResources; ++k) {
            w[k] = core::stage_delay_factor(u_with[k]) * (kCeiling * inv_d);
          }
          if (!core::FeasibleRegion::admits_lhs(envelope_dot(shape, w),
                                                kBudget)) {
            ++knapsack_only_admits;
          }
        }
        if (tiers.kept_reject > tiers_before.kept_reject) {
          ++kept_rejects;
          EXPECT_LE(e.lhs_with_task, exact);
        }
        if (tiers.dp > tiers_before.dp) ++dp_calls;
        admits += e.admitted ? 1 : 0;
      }
    }
  }
  // Both verdicts occur, both bound tiers fire, and so does the DP
  // fallback, whose verdicts the first assertion checks like the rest.
  EXPECT_GT(admits, trials / 10);
  EXPECT_LT(admits, trials - trials / 10);
  EXPECT_GT(kept_rejects, trials / 10);
  EXPECT_GT(dp_calls, trials / 10);
  EXPECT_GE(knapsack_only_admits, 100u);
  EXPECT_GE(envelope_admits, knapsack_only_admits);
}

// The envelope never exceeds what a path can do: no component above the
// most visits any path makes to that resource, and a total no larger than
// the longest path. The knapsack over it is therefore never looser than
// one over those per-resource maxima and max_path_nodes().
TEST(DagEnvelopeTierTest, EnvelopeIsWithinThePathMaxima) {
  util::Rng rng(16);
  core::TaskGraphShapeRegistry registry;
  std::vector<double> scratch;
  std::size_t capped = 0;
  for (int i = 0; i < 40; ++i) {
    const auto spec = registry.canonicalize(workload::random_dag(
        rng, capped_config(rng, static_cast<std::size_t>(
                                    rng.uniform_int(20, 400))),
        1, kCeiling));
    const core::TaskGraphShape& shape = *spec.shape;
    const auto touched = shape.touched_resources();
    // Weight 1 on every node: the longest path in nodes.
    std::vector<double> w(kResources, 1.0);
    EXPECT_EQ(shape.longest_path_weight(w, scratch),
              static_cast<double>(shape.max_path_nodes()));
    EXPECT_LE(shape.envelope_total(), shape.max_path_nodes());
    if (shape.profiles_complete()) {
      EXPECT_TRUE(shape.envelope().empty());
      EXPECT_EQ(shape.envelope_total(), 0u);
      continue;
    }
    ++capped;
    EXPECT_GT(shape.envelope_total(), 0u);
    std::uint32_t sum = 0;
    for (const auto& e : shape.envelope()) {
      // Weight 1 on one resource: the most visits any path makes to it.
      std::fill(w.begin(), w.end(), 0.0);
      w[touched[e.local]] = 1.0;
      EXPECT_LE(static_cast<double>(e.mult),
                shape.longest_path_weight(w, scratch));
      sum += e.mult;
    }
    // A single dropped path could not be wider than the envelope.
    EXPECT_LE(shape.envelope_total(), sum);
  }
  EXPECT_GT(capped, 10u);
}

// Layer j of `layers` holds one node on resource 0 and one on resource 1,
// each fed by both nodes of layer j - 1. The paths ending at a layer-j node
// have j + 1 mutually incomparable profiles, so the per-node cap drops some
// from layer 8 on. A chain of `tail` nodes on resource 1 follows, fed by
// both nodes of the last layer. Every path has layers + tail nodes.
core::GraphTaskSpec two_resource_ladder(std::size_t layers,
                                        std::size_t tail = 0) {
  core::GraphTaskSpec g;
  g.deadline = kCeiling;
  auto add_node = [&](std::size_t resource) {
    core::GraphNode node;
    node.resource = resource;
    node.demand.compute = 1e-4;
    g.nodes.push_back(node);
  };
  for (std::size_t j = 0; j < layers; ++j) {
    for (std::size_t r = 0; r < 2; ++r) {
      add_node(r);
      if (j == 0) continue;
      const std::size_t to = 2 * j + r;
      g.edges.push_back({2 * (j - 1), to});
      g.edges.push_back({2 * (j - 1) + 1, to});
    }
  }
  for (std::size_t k = 0; k < tail; ++k) {
    add_node(1);
    const std::size_t to = g.nodes.size() - 1;
    if (k == 0) {
      g.edges.push_back({to - 2, to});
      g.edges.push_back({to - 1, to});
    } else {
      g.edges.push_back({to - 1, to});
    }
  }
  return g;
}

// Equal weights a on both resources and every path of 20 nodes: the exact
// value is 20a. The envelope covers dropped paths heavy on each resource,
// so its dot product exceeds 20a by far, but no path it covers has more
// than 20 nodes, so the knapsack is 20a too.
TEST(DagEnvelopeTierTest, KnapsackAdmitsWhereTheEnvelopeDotProductCannot) {
  constexpr std::size_t kLayers = 20;
  core::TaskGraphShapeRegistry registry;
  const core::GraphTaskSpec spec =
      registry.canonicalize(two_resource_ladder(kLayers));
  const core::TaskGraphShape& shape = *spec.shape;
  ASSERT_FALSE(shape.profiles_complete());
  EXPECT_EQ(shape.max_path_nodes(), kLayers);
  EXPECT_EQ(shape.envelope_total(), kLayers);

  core::LongPathEvaluator eval(std::vector<double>(2, kCeiling), {},
                               core::LongPathEvaluator::kNoStageCap);
  const double u0 = core::stage_delay_factor_inverse(0.9 / kLayers);
  const std::vector<double> u = {u0, u0};
  const std::vector<double> w = {core::stage_delay_factor(u0),
                                 core::stage_delay_factor(u0)};
  ASSERT_FALSE(core::FeasibleRegion::admits_lhs(envelope_dot(shape, w),
                                                kBudget));

  const double exact = eval.exact_lhs_from_snapshot(spec, u);
  const auto before = eval.tier_counts();
  const double value = eval.lhs_from_snapshot(spec, u);
  EXPECT_EQ(eval.tier_counts().envelope_admit, before.envelope_admit + 1);
  EXPECT_EQ(eval.tier_counts().dp, before.dp);
  EXPECT_TRUE(core::FeasibleRegion::admits_lhs(value, kBudget));
  EXPECT_GE(value, exact);
  EXPECT_NEAR(value, exact, 1e-12);
}

// Prefixes dropped in the ladder go on through a 20-node tail, so the
// envelope's visit total must grow with every node after the drop: the
// heaviest path (all on resource 1) is a dropped one, and no kept profile
// and no bound on the length at the drop reaches its value. Over a sweep of
// weights across the budget, every verdict is the DP's and every reported
// value brackets the DP's on the side its tier promises.
TEST(DagEnvelopeTierTest, DroppedPrefixesStayCoveredThroughALongTail) {
  constexpr std::size_t kLayers = 10;
  constexpr std::size_t kTail = 20;
  core::TaskGraphShapeRegistry registry;
  const core::GraphTaskSpec spec =
      registry.canonicalize(two_resource_ladder(kLayers, kTail));
  const core::TaskGraphShape& shape = *spec.shape;
  ASSERT_FALSE(shape.profiles_complete());
  EXPECT_EQ(shape.max_path_nodes(), kLayers + kTail);
  EXPECT_EQ(shape.envelope_total(), kLayers + kTail);

  core::LongPathEvaluator eval(std::vector<double>(2, kCeiling), {},
                               core::LongPathEvaluator::kNoStageCap);
  std::uint64_t admits = 0;
  std::uint64_t dp = 0;
  constexpr int kSteps = 400;
  for (int i = 0; i < kSteps; ++i) {
    // Resource 1 weighs a, resource 0 a quarter of it; the all-resource-1
    // path's value kLayers + kTail times a sweeps [0.9, 1.1].
    const double a = (0.9 + 0.2 * i / kSteps) / (kLayers + kTail);
    const std::vector<double> u = {core::stage_delay_factor_inverse(a / 4),
                                   core::stage_delay_factor_inverse(a)};
    const double exact = eval.exact_lhs_from_snapshot(spec, u);
    const auto before = eval.tier_counts();
    const double value = eval.lhs_from_snapshot(spec, u);
    const auto& tiers = eval.tier_counts();
    const bool admitted = core::FeasibleRegion::admits_lhs(value, kBudget);
    ASSERT_EQ(admitted, core::FeasibleRegion::admits_lhs(exact, kBudget))
        << "step " << i << ": exact " << exact << ", reported " << value;
    if (tiers.envelope_admit > before.envelope_admit) {
      EXPECT_GE(value, exact) << "step " << i;
    }
    if (tiers.kept_reject > before.kept_reject) {
      EXPECT_LE(value, exact) << "step " << i;
    }
    dp += tiers.dp - before.dp;
    admits += admitted ? 1 : 0;
  }
  EXPECT_GT(admits, kSteps / 4);
  EXPECT_LT(admits, kSteps - kSteps / 4);
  // Only the DP tells the heaviest path apart from the kept ones here.
  EXPECT_GT(dp, 0u);
}

// The benchmark's shape pool, generated the same way: every pair i < j is
// an edge with probability min(0.25, 4 / n), walked with geometric skips;
// resources uniform over 8, computes uniform in [0.01, 0.03] / n.
constexpr std::size_t kPoolResources = 8;

core::GraphTaskSpec pool_dag(util::Rng& rng, std::size_t n) {
  core::GraphTaskSpec g;
  g.deadline = kCeiling;
  g.nodes.resize(n);
  const double scale = 1.0 / static_cast<double>(n);
  for (auto& node : g.nodes) {
    node.resource = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(kPoolResources) - 1));
    node.demand.compute = rng.uniform(0.01 * scale, 0.03 * scale);
  }
  const double p = std::min(0.25, 4.0 * scale);
  const double log_q = std::log1p(-p);
  std::size_t i = 0;
  std::size_t j = 0;  // the pair (i, i + 1 + j)
  while (i + 1 < n) {
    const double x = 1.0 - rng.uniform01();  // (0, 1]
    j += static_cast<std::size_t>(std::floor(std::log(x) / log_q));
    while (i + 1 < n && j >= n - 1 - i) {
      j -= n - 1 - i;
      ++i;
    }
    if (i + 1 >= n) break;
    g.edges.push_back(core::GraphEdge{i, i + 1 + j});
    ++j;
  }
  return g;
}

// An overloaded stream of 16384 arrivals (50/s, deadlines in [0.5, 1]) over
// eight shapes each of 100, 1k and 10k nodes, admitted through the
// long-path controller with expiries. Every decision equals the exact DP's
// verdict on the same state, and the DP settles almost no value.
TEST(DagEnvelopeTierTest, WorkloadReplayDecisionsMatchExactDp) {
  constexpr std::size_t kArrivals = 16384;
  constexpr Duration kDeadlineMin = 0.5;
  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> pool;
  util::Rng shape_rng(0x5eed0da6);
  for (const std::size_t n : {100, 1000, 10000}) {
    for (int k = 0; k < 8; ++k) {
      pool.push_back(registry.canonicalize(pool_dag(shape_rng, n)));
    }
  }

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kPoolResources);
  core::GraphAdmissionController ctl(
      sim, tracker,
      core::LongPathEvaluator(std::vector<double>(kPoolResources, kCeiling),
                              {}, kDeadlineMin / kCeiling));
  core::LongPathEvaluator ref(std::vector<double>(kPoolResources, kCeiling),
                              {}, kDeadlineMin / kCeiling);
  util::Rng rng(7);
  std::vector<double> u(kPoolResources);
  Time t = 0;
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < kArrivals; ++i) {
    t += rng.exponential(1.0 / 50.0);
    core::GraphTaskSpec& spec = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    spec.id = i + 1;
    spec.deadline = rng.uniform(kDeadlineMin, kCeiling);
    sim.run_until(t);

    tracker.utilizations(u);
    const auto touched = spec.shape->touched_resources();
    const auto& compute = spec.demands->resource_compute;
    const double inv_d = util::safe_inv(spec.deadline);
    for (std::size_t k = 0; k < touched.size(); ++k) {
      u[touched[k]] += compute[k] * inv_d;
    }
    const double exact = ref.exact_lhs_from_snapshot(spec, u);
    const core::AdmissionDecision d = ctl.try_admit(spec, t);
    ASSERT_EQ(d.admitted, core::FeasibleRegion::admits_lhs(exact, kBudget))
        << "arrival " << i << ": exact " << exact << ", reported "
        << d.lhs_with_task;
    admitted += d.admitted ? 1 : 0;
  }
  // The stream overloads the region: both verdicts are common.
  EXPECT_GT(admitted, kArrivals / 5);
  EXPECT_LT(admitted, kArrivals - kArrivals / 5);
  const auto& tiers = ctl.long_path_evaluator()->tier_counts();
  const std::uint64_t values =
      tiers.complete + tiers.envelope_admit + tiers.kept_reject + tiers.dp;
  EXPECT_EQ(values, 2 * kArrivals);
  EXPECT_LT(tiers.dp, values / 100);
}

}  // namespace
}  // namespace frap
