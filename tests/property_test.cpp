// Randomized property tests cross-validating core data structures against
// brute-force reference computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "sim/simulator.h"
#include "support/reference_graph.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

// ---------------------------------------------------------------- tracker ---

// Reference model of the tracker: a map of live contributions, recomputed
// from scratch on every query.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(std::size_t stages) : stages_(stages) {}

  void add(std::uint64_t id, std::vector<double> c, Time expiry) {
    tasks_[id] = Entry{std::move(c), std::vector<bool>(stages_, false),
                       expiry};
  }
  void expire_until(Time now) {
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      if (it->second.expiry <= now) {
        it = tasks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void mark_departed(std::uint64_t id, std::size_t stage) {
    auto it = tasks_.find(id);
    if (it != tasks_.end()) it->second.departed[stage] = true;
  }
  void idle(std::size_t stage) {
    for (auto& [id, e] : tasks_) {
      if (e.departed[stage]) e.contribution[stage] = 0;
    }
  }
  void remove(std::uint64_t id) { tasks_.erase(id); }
  double utilization(std::size_t stage) const {
    double u = 0;
    for (const auto& [id, e] : tasks_) u += e.contribution[stage];
    return u;
  }

 private:
  struct Entry {
    std::vector<double> contribution;
    std::vector<bool> departed;
    Time expiry;
  };
  std::size_t stages_;
  std::map<std::uint64_t, Entry> tasks_;
};

class TrackerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerFuzzTest, MatchesReferenceUnderRandomOperations) {
  util::Rng rng(GetParam());
  sim::Simulator sim;
  const std::size_t stages = 1 + static_cast<std::size_t>(
                                      rng.uniform_int(0, 3));
  core::SyntheticUtilizationTracker tracker(sim, stages);
  ReferenceTracker reference(stages);

  std::vector<std::uint64_t> live_ids;
  std::uint64_t next_id = 1;

  for (int step = 0; step < 600; ++step) {
    // Advance virtual time a random amount (fires expiries in tracker).
    const Duration dt = rng.exponential(0.05);
    sim.run_until(sim.now() + dt);
    reference.expire_until(sim.now());
    live_ids.erase(std::remove_if(live_ids.begin(), live_ids.end(),
                                  [&](std::uint64_t id) {
                                    return !tracker.is_live(id);
                                  }),
                   live_ids.end());

    const auto op = rng.uniform_int(0, 9);
    if (op <= 4) {  // add
      std::vector<double> c(stages);
      for (auto& v : c) v = rng.uniform(0.0, 0.1);
      const Time expiry = sim.now() + rng.uniform(0.01, 0.5);
      tracker.add(next_id, c, expiry);
      reference.add(next_id, c, expiry);
      live_ids.push_back(next_id);
      ++next_id;
    } else if (op <= 6 && !live_ids.empty()) {  // mark departed
      const auto id = live_ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ids.size()) - 1))];
      const auto stage = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(stages) - 1));
      tracker.mark_departed(id, stage);
      reference.mark_departed(id, stage);
    } else if (op == 7) {  // idle reset on a random stage
      const auto stage = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(stages) - 1));
      tracker.on_stage_idle(stage);
      reference.idle(stage);
    } else if (op == 8 && !live_ids.empty()) {  // shed
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ids.size()) - 1));
      tracker.remove_task(live_ids[idx]);
      reference.remove(live_ids[idx]);
      live_ids.erase(live_ids.begin() +
                     static_cast<std::ptrdiff_t>(idx));
    }
    // op == 9 (and fall-throughs when no live ids): just compare.

    for (std::size_t j = 0; j < stages; ++j) {
      ASSERT_NEAR(tracker.utilization(j), reference.utilization(j), 1e-9)
          << "step " << step << " stage " << j << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------- critical path ---

// Brute force: enumerate every path by DFS and take the max weight sum.
double brute_force_critical_path(const core::GraphTaskSpec& g,
                                 const std::vector<double>& w) {
  std::vector<std::vector<std::size_t>> out(g.nodes.size());
  std::vector<bool> has_pred(g.nodes.size(), false);
  for (const auto& e : g.edges) {
    out[e.from].push_back(e.to);
    has_pred[e.to] = true;
  }
  double best = 0;
  std::function<void(std::size_t, double)> dfs = [&](std::size_t v,
                                                     double acc) {
    acc += w[v];
    best = std::max(best, acc);
    for (std::size_t s : out[v]) dfs(s, acc);
  };
  for (std::size_t v = 0; v < g.nodes.size(); ++v) {
    if (!has_pred[v]) dfs(v, 0);
  }
  return best;
}

class CriticalPathFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

// The shape's quotient DP against brute force. Node i sits alone on
// resource i, so per-resource weights are arbitrary per-node weights.
TEST_P(CriticalPathFuzzTest, MatchesBruteForceOnRandomDags) {
  util::Rng rng(GetParam() * 1000 + 7);
  core::TaskGraphShapeRegistry registry;
  std::vector<double> scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n =
        2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    core::GraphTaskSpec g;
    g.id = 1;
    g.deadline = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      core::StageDemand d;
      d.compute = 0.01;
      g.nodes.push_back(core::GraphNode{i, d});
    }
    // Random forward edges (i -> j with i < j) guarantee acyclicity.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.3)) g.edges.push_back(core::GraphEdge{i, j});
      }
    }
    std::vector<double> w(n);
    for (auto& v : w) v = rng.uniform(0.0, 5.0);

    const auto canon = registry.canonicalize(g);
    ASSERT_TRUE(canon.valid(n));
    EXPECT_NEAR(canon.shape->longest_path_weight(w, scratch),
                brute_force_critical_path(g, w), 1e-9)
        << "trial " << trial << " seed " << GetParam();
    EXPECT_NEAR(testing::reference_critical_path(g, w),
                brute_force_critical_path(g, w), 1e-9)
        << "trial " << trial << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalPathFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------- shape intern ---

core::GraphTaskSpec chain_spec(std::uint64_t id, Duration deadline,
                               std::vector<std::size_t> resources,
                               Duration compute) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = deadline;
  g.nodes.resize(resources.size());
  for (std::size_t v = 0; v < resources.size(); ++v) {
    g.nodes[v].resource = resources[v];
    g.nodes[v].demand.compute = compute;
    if (v + 1 < resources.size()) g.edges.push_back({v, v + 1});
  }
  return g;
}

class ShapeInternFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// The generator produces valid (acyclic) graphs by construction, and the
// registry interns topology, not demands: an identical layout MUST alias to
// the same shape, and so must a demand change, while the demands must NOT
// alias — each canonical spec carries its own. A resource change is a
// different topology.
TEST_P(ShapeInternFuzzTest, IdenticalLayoutAliasesDemandChangeDoesNot) {
  util::Rng rng(GetParam() * 7919 + 5);
  core::TaskGraphShapeRegistry registry;
  constexpr std::size_t kResources = 4;
  for (int i = 0; i < 200; ++i) {
    workload::RandomDagConfig cfg;
    cfg.kind = rng.bernoulli(0.5)
                   ? workload::RandomDagConfig::Kind::kLayered
                   : workload::RandomDagConfig::Kind::kErdosRenyi;
    cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(1, 14));
    cfg.num_resources = kResources;
    const auto spec = workload::random_dag(
        rng, cfg, static_cast<std::uint64_t>(i), rng.uniform(0.5, 2.0));
    const auto* shape = registry.canonicalize(spec).shape;
    ASSERT_NE(shape, nullptr);
    EXPECT_EQ(shape->num_nodes(), spec.nodes.size());
    EXPECT_EQ(shape->num_edges(), spec.edges.size());

    // A second task of the same request class (same layout, new id and
    // deadline) aliases.
    auto sibling = spec;
    sibling.id += 1000;
    sibling.deadline *= 2.0;
    EXPECT_EQ(registry.canonicalize(sibling).shape, shape);

    // Same topology, one perturbed demand: the SAME shape, its own
    // demands.
    auto tweaked = spec;
    const auto v = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.nodes.size()) - 1));
    tweaked.nodes[v].demand.compute *= 1.5;
    EXPECT_EQ(registry.canonicalize(tweaked).shape, shape);

    // One node moved to another resource: a DIFFERENT shape.
    auto moved = spec;
    moved.nodes[v].resource = (moved.nodes[v].resource + 1) % kResources;
    EXPECT_NE(registry.canonicalize(moved).shape, shape);

    // The canonical spec is semantically the same task: same deadline,
    // same per-resource contributions, same critical-path value under
    // arbitrary per-resource weights, the topology read through the shape
    // and the demands through its own GraphDemands (the canonical spec
    // carries no layout of its own).
    const auto canon = registry.canonicalize(spec);
    ASSERT_EQ(canon.shape, shape);
    EXPECT_TRUE(canon.nodes.empty());
    EXPECT_TRUE(canon.edges.empty());
    EXPECT_EQ(canon.num_nodes(), spec.nodes.size());
    EXPECT_EQ(canon.deadline, spec.deadline);
    const auto c0 = testing::reference_resource_contributions(spec, kResources);
    const auto c1 = canon.resource_contributions(kResources);
    for (std::size_t k = 0; k < kResources; ++k) {
      EXPECT_NEAR(c0[k], c1[k], 1e-12);
    }
    const auto tweaked_canon = registry.canonicalize(tweaked);
    EXPECT_EQ(tweaked_canon.shape, shape);
    EXPECT_NE(tweaked_canon.demands, canon.demands);
    EXPECT_NE(tweaked_canon.demands->node_compute, canon.demands->node_compute);
    EXPECT_NE(tweaked_canon.resource_contributions(kResources), c1);
    std::vector<double> w0(spec.nodes.size());
    std::vector<double> by_resource(kResources);
    for (std::size_t k = 0; k < kResources; ++k) {
      by_resource[k] = rng.uniform(0.0, 1.0);
    }
    for (std::size_t v2 = 0; v2 < spec.nodes.size(); ++v2) {
      w0[v2] = by_resource[spec.nodes[v2].resource];
    }
    // Bit-equal, not close: the raw-graph DP runs the same recurrence over
    // the same set of label sequences as the shape's quotient DP.
    std::vector<double> scratch;
    EXPECT_EQ(testing::reference_critical_path(spec, w0),
              shape->longest_path_weight(by_resource, scratch));
  }
  // The sibling and the demand change above are hits.
  EXPECT_GE(registry.hits(), 400u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeInternFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(ShapeInternEdgeCaseTest, EmptyGraphInternsToBenignShape) {
  core::TaskGraphShapeRegistry registry;
  core::GraphTaskSpec empty;
  empty.id = 1;
  empty.deadline = 1.0;
  // Not a runnable task (valid() demands at least one node)…
  EXPECT_FALSE(registry.canonicalize(empty).valid(4));
  // …but the registry still canonicalizes it deterministically: zero
  // profiles, zero touched resources, and repeated interns alias.
  const auto* shape = registry.canonicalize(empty).shape;
  ASSERT_NE(shape, nullptr);
  EXPECT_EQ(shape->num_nodes(), 0u);
  EXPECT_EQ(shape->num_profiles(), 0u);
  EXPECT_TRUE(shape->profiles_complete());
  EXPECT_EQ(registry.canonicalize(empty).shape, shape);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ShapeInternEdgeCaseTest, SingleNodeChainAndDiamondProfiles) {
  core::TaskGraphShapeRegistry registry;

  // Single node: one profile, multiplicity 1 on its only resource.
  const auto single = chain_spec(1, 1.0, {2}, 3 * kMilli);
  const auto* s1 = registry.canonicalize(single).shape;
  ASSERT_EQ(s1->num_profiles(), 1u);
  EXPECT_TRUE(s1->profiles_complete());
  ASSERT_EQ(s1->profile(0).size(), 1u);
  EXPECT_EQ(s1->touched_resources()[s1->profile(0)[0].local], 2u);
  EXPECT_EQ(s1->profile(0)[0].mult, 1u);

  // Chain with a repeated resource: the single path profile accumulates
  // multiplicity 2 at the repeat.
  const auto chain = chain_spec(2, 1.0, {0, 1, 0}, 2 * kMilli);
  const auto* s2 = registry.canonicalize(chain).shape;
  ASSERT_EQ(s2->num_profiles(), 1u);
  EXPECT_TRUE(s2->profiles_complete());
  std::uint32_t mult0 = 0;
  for (const auto& e : s2->profile(0)) {
    if (s2->touched_resources()[e.local] == 0u) mult0 = e.mult;
  }
  EXPECT_EQ(mult0, 2u);

  // Diamond 0 -> {1, 2} -> 3 with distinct resources: two maximal paths,
  // neither dominating (different middle resources), both kept.
  core::GraphTaskSpec diamond;
  diamond.id = 3;
  diamond.deadline = 1.0;
  diamond.nodes.resize(4);
  for (std::size_t v = 0; v < 4; ++v) {
    diamond.nodes[v].resource = v;
    diamond.nodes[v].demand.compute = (v + 1) * kMilli;
  }
  diamond.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const auto* s3 = registry.canonicalize(diamond).shape;
  EXPECT_TRUE(s3->profiles_complete());
  EXPECT_EQ(s3->num_profiles(), 2u);
}

// On chains the long-path bound with per-resource ceilings equal to the
// task deadline IS the critical-path test with alpha = 1 (the ratio-1
// mode): same lhs (up to rounding of D * (1/D)), same verdict. The ratio-1
// mode's victim guard saturates a weight whose f-term exceeds 1, where
// both values are over the budget anyway.
TEST(ShapeInternEdgeCaseTest, ChainLongPathAgreesWithCriticalPath) {
  util::Rng rng(99);
  constexpr std::size_t kResources = 6;
  core::TaskGraphShapeRegistry registry;
  auto crit = core::LongPathEvaluator::ratio_one(kResources, 1.0, {});
  for (int i = 0; i < 300; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<std::size_t> resources(len);
    for (auto& r : resources) {
      r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kResources) - 1));
    }
    const Duration deadline = rng.uniform(0.5, 2.0);
    const auto spec = registry.canonicalize(chain_spec(
        static_cast<std::uint64_t>(i), deadline, std::move(resources),
        rng.uniform(1 * kMilli, 10 * kMilli)));

    core::LongPathEvaluator long_eval(std::vector<double>(kResources, deadline),
                                      {}, core::LongPathEvaluator::kNoStageCap);
    std::vector<double> u(kResources);
    for (auto& x : u) x = rng.uniform(0.0, 0.9);

    const double lhs_long = long_eval.lhs_from_snapshot(spec, u);
    const double lhs_crit = crit.lhs_from_snapshot(spec, u);
    if (std::isinf(lhs_crit)) {
      EXPECT_GT(lhs_long, core::LongPathEvaluator::kDelayBudget);
    } else {
      EXPECT_NEAR(lhs_long, lhs_crit, 1e-9) << "chain " << i;
    }
    EXPECT_EQ(core::FeasibleRegion::admits_lhs(
                  lhs_long, core::LongPathEvaluator::kDelayBudget),
              core::FeasibleRegion::admits_lhs(
                  lhs_crit, core::LongPathEvaluator::kDelayBudget))
        << "chain " << i;
  }
}

}  // namespace
}  // namespace frap
