#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/stage_delay.h"
#include "core/task_graph.h"

namespace frap::core {
namespace {

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
  EXPECT_TRUE(g.valid(4));
  EXPECT_FALSE(g.valid(3));  // node 3 uses resource 3
}

TEST(TaskGraphTest, TopologicalOrderRespectsEdges) {
  const auto g = fig3_task();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < 4; ++i) pos[order[i]] = i;
  for (const auto& e : g.edges) {
    EXPECT_LT(pos[e.from], pos[e.to]);
  }
}

TEST(TaskGraphTest, CycleIsInvalid) {
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{1, demand(0.1)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{1, 0}};
  EXPECT_FALSE(g.valid(2));
}

TEST(TaskGraphTest, SelfLoopIsInvalid) {
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}};
  g.edges = {GraphEdge{0, 0}};
  EXPECT_FALSE(g.valid(1));
}

TEST(TaskGraphTest, CriticalPathOfFig3IsL1PlusMaxL2L3PlusL4) {
  const auto g = fig3_task();
  // Weights L1=1, L2=5, L3=2, L4=1 -> 1 + max(5,2) + 1 = 7 (Eq. 16 shape).
  EXPECT_DOUBLE_EQ(g.critical_path(std::vector<double>{1, 5, 2, 1}), 7.0);
  EXPECT_DOUBLE_EQ(g.critical_path(std::vector<double>{1, 2, 5, 1}), 7.0);
}

TEST(TaskGraphTest, CriticalPathOfChainIsSum) {
  TaskSpec p;
  p.id = 2;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1), demand(0.1)};
  const auto g = GraphTaskSpec::from_pipeline(p);
  EXPECT_DOUBLE_EQ(g.critical_path(std::vector<double>{1, 2, 3}), 6.0);
}

TEST(TaskGraphTest, CriticalPathOfParallelNodesIsMax) {
  GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{1, demand(0.1)},
             GraphNode{2, demand(0.1)}};
  // No edges: three independent nodes.
  EXPECT_DOUBLE_EQ(g.critical_path(std::vector<double>{3, 7, 2}), 7.0);
}

TEST(TaskGraphTest, FromPipelinePreservesStructure) {
  TaskSpec p;
  p.id = 9;
  p.deadline = 2.0;
  p.importance = 4.0;
  p.stages = {demand(0.2), demand(0.4)};
  const auto g = GraphTaskSpec::from_pipeline(p);
  EXPECT_EQ(g.id, 9u);
  EXPECT_DOUBLE_EQ(g.deadline, 2.0);
  EXPECT_DOUBLE_EQ(g.importance, 4.0);
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(g.nodes[0].resource, 0u);
  EXPECT_EQ(g.nodes[1].resource, 1u);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_TRUE(g.valid(2));
}

TEST(TaskGraphTest, ResourceContributionsSumSharedResources) {
  GraphTaskSpec g;
  g.deadline = 2.0;
  // Nodes 0 and 2 share resource 0 (the paper's shared-resource case).
  g.nodes = {GraphNode{0, demand(0.2)}, GraphNode{1, demand(0.4)},
             GraphNode{0, demand(0.6)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{1, 2}};
  const auto c = g.resource_contributions(2);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 0.4);  // (0.2 + 0.6) / 2
  EXPECT_DOUBLE_EQ(c[1], 0.2);
}

// ------------------------------------------------- GraphRegionEvaluator ---

TEST(GraphRegionTest, ChainMatchesPipelineRegion) {
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1)};
  const auto g = GraphTaskSpec::from_pipeline(p);
  GraphRegionEvaluator eval(1.0, {});
  const std::vector<double> u{0.3, 0.2};
  EXPECT_NEAR(eval.lhs(g, u),
              stage_delay_factor(0.3) + stage_delay_factor(0.2), 1e-12);
  EXPECT_DOUBLE_EQ(eval.bound(g), 1.0);
}

TEST(GraphRegionTest, Fig3LhsUsesEq16Shape) {
  const auto g = fig3_task();
  GraphRegionEvaluator eval(1.0, {});
  const std::vector<double> u{0.3, 0.4, 0.2, 0.1};
  const double expected = stage_delay_factor(0.3) +
                          std::max(stage_delay_factor(0.4),
                                   stage_delay_factor(0.2)) +
                          stage_delay_factor(0.1);
  EXPECT_NEAR(eval.lhs(g, u), expected, 1e-12);
}

TEST(GraphRegionTest, ParallelBranchesAdmitMoreThanChain) {
  // Same four nodes; the fork/join shape tolerates higher utilization than
  // a 4-chain because only the worse branch counts.
  const auto fork = fig3_task();
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1), demand(0.1), demand(0.1)};
  const auto chain = GraphTaskSpec::from_pipeline(p);
  GraphRegionEvaluator eval(1.0, {});
  const std::vector<double> u{0.25, 0.25, 0.25, 0.25};
  EXPECT_LT(eval.lhs(fork, u), eval.lhs(chain, u));
}

TEST(GraphRegionTest, SaturatedResourceIsInfinite) {
  const auto g = fig3_task();
  GraphRegionEvaluator eval(1.0, {});
  EXPECT_TRUE(std::isinf(eval.lhs(g, std::vector<double>{1.0, 0, 0, 0})));
}

TEST(GraphRegionTest, AlphaScalesBound) {
  const auto g = fig3_task();
  GraphRegionEvaluator eval(0.5, {});
  EXPECT_DOUBLE_EQ(eval.bound(g), 0.5);
}

TEST(GraphRegionTest, BlockingUsesCriticalPathOfBetas) {
  const auto g = fig3_task();
  // beta on the four resources; the blocking path is beta0 +
  // max(beta1, beta2) + beta3 = 0.1 + 0.15 + 0.05 = 0.3.
  GraphRegionEvaluator eval(1.0, std::vector<double>{0.1, 0.15, 0.05, 0.05});
  EXPECT_NEAR(eval.bound(g), 1.0 - 0.3, 1e-12);
}

TEST(GraphRegionTest, ChainBlockingReducesToEq15) {
  TaskSpec p;
  p.id = 1;
  p.deadline = 1.0;
  p.stages = {demand(0.1), demand(0.1)};
  const auto g = GraphTaskSpec::from_pipeline(p);
  GraphRegionEvaluator eval(0.8, std::vector<double>{0.1, 0.2});
  // alpha (1 - sum beta) = 0.8 * 0.7.
  EXPECT_NEAR(eval.bound(g), 0.8 * 0.7, 1e-12);
}

TEST(GraphRegionTest, FeasibleDecision) {
  const auto g = fig3_task();
  GraphRegionEvaluator eval(1.0, {});
  const std::vector<double> light{0.2, 0.2, 0.2, 0.2};
  const std::vector<double> heavy{0.5, 0.5, 0.5, 0.5};
  EXPECT_TRUE(FeasibleRegion::admits_lhs(eval.lhs(g, light), eval.bound(g)));
  EXPECT_FALSE(FeasibleRegion::admits_lhs(eval.lhs(g, heavy), eval.bound(g)));
}

}  // namespace
}  // namespace frap::core
