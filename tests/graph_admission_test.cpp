// Unit tests for GraphAdmissionController in Theorem 2's ratio-1 mode
// (critical-path admission decisions over canonical specs; end-to-end DAG
// soundness lives in dag_integration_test.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "sim/simulator.h"

namespace frap::core {
namespace {

StageDemand demand(Duration c) {
  StageDemand d;
  d.compute = c;
  return d;
}

// Fork/join over four resources; per-node compute = c, deadline = d.
GraphTaskSpec fork_join(std::uint64_t id, Duration d, Duration c) {
  GraphTaskSpec g;
  g.id = id;
  g.deadline = d;
  g.nodes = {GraphNode{0, demand(c)}, GraphNode{1, demand(c)},
             GraphNode{2, demand(c)}, GraphNode{3, demand(c)}};
  g.edges = {GraphEdge{0, 1}, GraphEdge{0, 2}, GraphEdge{1, 3},
             GraphEdge{2, 3}};
  return g;
}

class GraphAdmissionTest : public ::testing::Test {
 protected:
  GraphAdmissionTest()
      : tracker_(sim_, 4),
        controller_(sim_, tracker_, LongPathEvaluator::ratio_one(4, 1.0, {})) {
  }

  AdmissionDecision admit(const GraphTaskSpec& raw) {
    return controller_.try_admit(registry_.canonicalize(raw), sim_.now());
  }

  sim::Simulator sim_;
  SyntheticUtilizationTracker tracker_;
  GraphAdmissionController controller_;
  TaskGraphShapeRegistry registry_;
};

TEST_F(GraphAdmissionTest, AdmitsSmallGraphTask) {
  const auto d = admit(fork_join(1, 1.0, 0.05));
  EXPECT_TRUE(d.admitted);
  // Contribution 0.05 on each resource.
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(tracker_.utilization(r), 0.05);
  }
  EXPECT_EQ(controller_.admitted(), 1u);
}

TEST_F(GraphAdmissionTest, LhsUsesCriticalPathNotSum) {
  // Utilization 0.3 everywhere: chain lhs would be 4 f(0.3) = 1.457 (out),
  // fork/join lhs is 3 f(0.3) = 1.093 (also out); at 0.25: chain 1.167
  // (out), fork 0.875 (in). So a fork/join task pushing all four resources
  // to ~0.25 is admitted although a 4-chain would not be.
  for (int i = 0; i < 4; ++i) {
    const auto d = admit(
        fork_join(static_cast<std::uint64_t>(i + 1), 1.0, 0.0625));
    EXPECT_TRUE(d.admitted) << i;
  }
  // Now at exactly 0.25 per resource: lhs = 3 f(0.25).
  const auto utilizations = tracker_.utilizations();
  for (double u : utilizations) EXPECT_NEAR(u, 0.25, 1e-12);
  auto eval = LongPathEvaluator::ratio_one(4, 1.0, {});
  EXPECT_NEAR(eval.lhs_from_snapshot(
                  registry_.canonicalize(fork_join(99, 1.0, 0.0)),
                  utilizations),
              3 * stage_delay_factor(0.25), 1e-12);
}

TEST_F(GraphAdmissionTest, RejectionLeavesTrackerUntouched) {
  const auto d = admit(fork_join(1, 1.0, 0.5));
  EXPECT_FALSE(d.admitted);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(tracker_.utilization(r), 0.0);
  }
  EXPECT_EQ(tracker_.live_tasks(), 0u);
}

TEST_F(GraphAdmissionTest, SharedResourceNodesAccumulate) {
  GraphTaskSpec g;
  g.id = 1;
  g.deadline = 1.0;
  g.nodes = {GraphNode{0, demand(0.1)}, GraphNode{0, demand(0.2)}};
  g.edges = {GraphEdge{0, 1}};
  ASSERT_TRUE(admit(g).admitted);
  EXPECT_NEAR(tracker_.utilization(0), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(tracker_.utilization(1), 0.0);
}

TEST_F(GraphAdmissionTest, ExpiryFreesGraphCapacity) {
  ASSERT_TRUE(admit(fork_join(1, 1.0, 0.2)).admitted);
  EXPECT_FALSE(admit(fork_join(2, 1.0, 0.2)).admitted);
  sim_.run_until(1.0);
  EXPECT_TRUE(admit(fork_join(3, 1.0, 0.2)).admitted);
}

TEST_F(GraphAdmissionTest, DecisionReportsLhsValues) {
  const auto d = admit(fork_join(1, 1.0, 0.1));
  EXPECT_DOUBLE_EQ(d.lhs_before, 0.0);
  EXPECT_NEAR(d.lhs_with_task, 3 * stage_delay_factor(0.1), 1e-12);
}

TEST_F(GraphAdmissionTest, CountsAttempts) {
  (void)admit(fork_join(1, 1.0, 0.05));
  (void)admit(fork_join(2, 1.0, 0.9));
  EXPECT_EQ(controller_.attempts(), 2u);
  EXPECT_EQ(controller_.admitted(), 1u);
}

}  // namespace
}  // namespace frap::core
