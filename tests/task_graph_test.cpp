// Graph specs, their canonical form, and Theorem 2's critical-path test
// as the ratio-1 weight mode of the long-path evaluator
// (docs/dag_bounds.md). The raw-graph oracle the ratio-1 mode is checked
// against lives in tests/support/reference_graph.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "support/reference_graph.h"

namespace frap::core {
namespace {

using frap::testing::from_pipeline;

StageDemand demand(Duration c) {
  StageDemand d;
  d.compute = c;
  return d;
}

// The example of Fig. 3: T1 -> {T2, T3} -> T4 on resources R1..R4.
GraphTaskSpec fig3_task() {
  GraphTaskSpec g;
  g.id = 1;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{1, demand(0.1)},
             GraphNode{2, demand(0.1)}, GraphNode{3, demand(0.1)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{0, 2}, GraphEdge{1, 3},
             GraphEdge{2, 3}};
  return g;
}

TEST(TaskGraphTest, Fig3IsValid) {
  const auto g = fig3_task();
  EXPECT_FALSE(g.valid(4));  // a raw spec is not canonical
  TaskGraphShapeRegistry registry;
  const auto canon = registry.canonicalize(g);
  EXPECT_TRUE(canon.valid(4));
  EXPECT_FALSE(canon.valid(3));  // node 3 uses resource 3
}

// The canonical node order is topological: every edge of the interned
// shape runs from a lower to a higher index.
TEST(TaskGraphTest, TopologicalOrderRespectsEdges) {
  // Fig. 3 presented join first, so the canonical order is not the
  // identity: node 0 is the join on resource 3, node 3 the source.
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{3, demand(0.1)}, GraphNode{1, demand(0.1)},
             GraphNode{2, demand(0.1)}, GraphNode{0, demand(0.1)}};
  g.edges = {GraphEdge{3, 1}, GraphEdge{3, 2}, GraphEdge{1, 0},
             GraphEdge{2, 0}};
  TaskGraphShapeRegistry registry;
  const TaskGraphShape& shape = *registry.canonicalize(g).shape;
  ASSERT_EQ(shape.num_nodes(), 4u);
  EXPECT_EQ(shape.num_edges(), 4u);
  for (std::size_t v = 0; v < shape.num_nodes(); ++v) {
    for (std::uint32_t s : shape.successors(v)) EXPECT_LT(v, s);
  }
  // The source (resource 0) comes first and the join (resource 3) last.
  EXPECT_EQ(shape.node_resource().front(), 0u);
  EXPECT_EQ(shape.node_resource().back(), 3u);
}

// canonicalize() interns acyclic layouts only; a cycle aborts it.
TEST(TaskGraphTest, CycleIsInvalid) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{1, demand(0.1)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{1, 0}};
  TaskGraphShapeRegistry registry;
  EXPECT_DEATH((void)registry.canonicalize(g), "order.size");
}

TEST(TaskGraphTest, SelfLoopIsInvalid) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}};
  g.edges = {GraphEdge{0, 0}};
  TaskGraphShapeRegistry registry;
  EXPECT_DEATH((void)registry.canonicalize(g), "order.size");
}

// The shape's longest-path DP with one node per resource, so per-resource
// weights are per-node weights.
double critical_path(const GraphTaskSpec& g, std::vector<double> weights) {
  TaskGraphShapeRegistry registry;
  std::vector<double> scratch;
  return registry.canonicalize(g).shape->longest_path_weight(weights, scratch);
}

TEST(TaskGraphTest, CriticalPathOfFig3IsL1PlusMaxL2L3PlusL4) {
  const auto g = fig3_task();
  // Weights L1=1, L2=5, L3=2, L4=1 -> 1 + max(5,2) + 1 = 7 (Eq. 16 shape).
  EXPECT_DOUBLE_EQ(critical_path(g, {1, 5, 2, 1}), 7.0);
  EXPECT_DOUBLE_EQ(critical_path(g, {1, 2, 5, 1}), 7.0);
}

TEST(TaskGraphTest, CriticalPathOfChainIsSum) {
  TaskSpec p;
  p.id = 2;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1), demand(0.1)};
  EXPECT_DOUBLE_EQ(critical_path(from_pipeline(p), {1, 2, 3}), 6.0);
}

TEST(TaskGraphTest, CriticalPathOfParallelNodesIsMax) {
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{1, demand(0.1)},
             GraphNode{2, demand(0.1)}};
  // No edges: three independent nodes.
  EXPECT_DOUBLE_EQ(critical_path(g, {3, 7, 2}), 7.0);
}

TEST(TaskGraphTest, FromPipelinePreservesStructure) {
  TaskSpec p;
  p.id = 9;
  p.deadline = 2.0;
  p.importance = 4.0;
  p.stages = {demand(0.2), demand(0.4)};
  const auto g = from_pipeline(p);
  EXPECT_EQ(g.id, 9u);
  EXPECT_DOUBLE_EQ(g.deadline, 2.0);
  EXPECT_DOUBLE_EQ(g.importance, 4.0);
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(g.nodes[0].resource, 0u);
  EXPECT_EQ(g.nodes[1].resource, 1u);
  ASSERT_EQ(g.edges.size(), 1u);
  TaskGraphShapeRegistry registry;
  EXPECT_TRUE(registry.canonicalize(g).valid(2));
}

TEST(TaskGraphTest, ResourceContributionsSumSharedResources) {
  GraphTaskSpec g;
  g.deadline = 2.0;
  // Nodes 0 and 2 share resource 0 (the paper's shared-resource case).
  g.nodes = {GraphNode{0, demand(0.2)}, GraphNode{1, demand(0.4)},
             GraphNode{0, demand(0.6)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{1, 2}};
  TaskGraphShapeRegistry registry;
  const auto c = registry.canonicalize(g).resource_contributions(2);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 0.4);  // (0.2 + 0.6) / 2
  EXPECT_DOUBLE_EQ(c[1], 0.2);
}

// ---------------------------------------------- ratio-1 (Theorem 2) mode ---
//
// The critical-path test d(f) <= alpha (1 - d(beta)) as the per-path test
// sum (f/alpha + beta) <= 1 over a canonical spec.

class GraphRegionTest : public ::testing::Test {
 protected:
  double lhs(const GraphTaskSpec& raw, const std::vector<double>& u,
             double alpha = 1.0, const std::vector<double>& beta = {}) {
    auto eval = LongPathEvaluator::ratio_one(u.size(), alpha, beta);
    return eval.lhs_from_snapshot(registry_.canonicalize(raw), u);
  }

  TaskGraphShapeRegistry registry_;
};

TEST_F(GraphRegionTest, ChainMatchesPipelineRegion) {
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1)};
  EXPECT_NEAR(lhs(from_pipeline(p), {0.3, 0.2}),
              stage_delay_factor(0.3) + stage_delay_factor(0.2), 1e-12);
}

TEST_F(GraphRegionTest, Fig3LhsUsesEq16Shape) {
  const double expected = stage_delay_factor(0.3) +
                          std::max(stage_delay_factor(0.4),
                                   stage_delay_factor(0.2)) +
                          stage_delay_factor(0.1);
  EXPECT_NEAR(lhs(fig3_task(), {0.3, 0.4, 0.2, 0.1}), expected, 1e-12);
}

TEST_F(GraphRegionTest, ParallelBranchesAdmitMoreThanChain) {
  // Same four nodes; the fork/join shape tolerates higher utilization than
  // a 4-chain because only the worse branch counts.
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1), demand(0.1), demand(0.1)};
  const std::vector<double> u{0.25, 0.25, 0.25, 0.25};
  EXPECT_LT(lhs(fig3_task(), u), lhs(from_pipeline(p), u));
}

TEST_F(GraphRegionTest, SaturatedResourceIsInfinite) {
  EXPECT_TRUE(std::isinf(lhs(fig3_task(), {1.0, 0, 0, 0})));
}

// d(f) <= alpha is d(f)/alpha <= 1: halving alpha doubles the value
// (exactly, since 1/0.5 = 2 and doubling rounds nowhere).
TEST_F(GraphRegionTest, AlphaScalesBound) {
  const std::vector<double> u{0.1, 0.15, 0.05, 0.1};
  EXPECT_EQ(lhs(fig3_task(), u, 0.5), 2 * lhs(fig3_task(), u, 1.0));
}

TEST_F(GraphRegionTest, BlockingUsesCriticalPathOfBetas) {
  // With idle resources only blocking remains: the longest beta path is
  // beta0 + max(beta1, beta2) + beta3 = 0.1 + 0.15 + 0.05 = 0.3.
  const std::vector<double> beta{0.1, 0.15, 0.05, 0.05};
  EXPECT_NEAR(lhs(fig3_task(), {0, 0, 0, 0}, 1.0, beta), 0.3, 1e-12);
}

TEST_F(GraphRegionTest, ChainBlockingReducesToEq15) {
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1)};
  // One path: (f0 + f1) / 0.8 + 0.3 <= 1, i.e. f0 + f1 <= 0.8 * 0.7.
  const std::vector<double> u{0.2, 0.1};
  const double f = stage_delay_factor(0.2) + stage_delay_factor(0.1);
  EXPECT_NEAR(lhs(from_pipeline(p), u, 0.8, {0.1, 0.2}), f / 0.8 + 0.3,
              1e-12);
}

TEST_F(GraphRegionTest, FeasibleDecision) {
  const auto budget = LongPathEvaluator::kDelayBudget;
  EXPECT_TRUE(FeasibleRegion::admits_lhs(
      lhs(fig3_task(), {0.2, 0.2, 0.2, 0.2}), budget));
  EXPECT_FALSE(FeasibleRegion::admits_lhs(
      lhs(fig3_task(), {0.5, 0.5, 0.5, 0.5}), budget));
}

}  // namespace
}  // namespace frap::core
