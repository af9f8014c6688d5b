// Unit tests for GraphAdmissionController (Theorem 2 admission decisions;
// end-to-end DAG soundness lives in dag_integration_test.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "core/admission.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
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
        controller_(sim_, tracker_, GraphRegionEvaluator(1.0, {})) {}

  sim::Simulator sim_;
  SyntheticUtilizationTracker tracker_;
  GraphAdmissionController controller_;
};

TEST_F(GraphAdmissionTest, AdmitsSmallGraphTask) {
  const auto d = controller_.try_admit(fork_join(1, 1.0, 0.05), sim_.now());
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
    const auto d = controller_.try_admit(
        fork_join(static_cast<std::uint64_t>(i + 1), 1.0, 0.0625), sim_.now());
    EXPECT_TRUE(d.admitted) << i;
  }
  // Now at exactly 0.25 per resource: lhs = 3 f(0.25).
  const auto utilizations = tracker_.utilizations();
  for (double u : utilizations) EXPECT_NEAR(u, 0.25, 1e-12);
  GraphRegionEvaluator eval(1.0, {});
  EXPECT_NEAR(eval.lhs(fork_join(99, 1.0, 0.0), utilizations),
              3 * stage_delay_factor(0.25), 1e-12);
}

TEST_F(GraphAdmissionTest, RejectionLeavesTrackerUntouched) {
  const auto d = controller_.try_admit(fork_join(1, 1.0, 0.5), sim_.now());
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
  ASSERT_TRUE(controller_.try_admit(g, sim_.now()).admitted);
  EXPECT_NEAR(tracker_.utilization(0), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(tracker_.utilization(1), 0.0);
}

TEST_F(GraphAdmissionTest, ExpiryFreesGraphCapacity) {
  ASSERT_TRUE(controller_.try_admit(fork_join(1, 1.0, 0.2),
                                    sim_.now()).admitted);
  EXPECT_FALSE(controller_.try_admit(fork_join(2, 1.0, 0.2),
                                     sim_.now()).admitted);
  sim_.run_until(1.0);
  EXPECT_TRUE(controller_.try_admit(fork_join(3, 1.0, 0.2),
                                    sim_.now()).admitted);
}

TEST_F(GraphAdmissionTest, DecisionReportsLhsValues) {
  const auto d = controller_.try_admit(fork_join(1, 1.0, 0.1), sim_.now());
  EXPECT_DOUBLE_EQ(d.lhs_before, 0.0);
  EXPECT_NEAR(d.lhs_with_task, 3 * stage_delay_factor(0.1), 1e-12);
}

TEST_F(GraphAdmissionTest, CountsAttempts) {
  (void)controller_.try_admit(fork_join(1, 1.0, 0.05), sim_.now());
  (void)controller_.try_admit(fork_join(2, 1.0, 0.9), sim_.now());
  EXPECT_EQ(controller_.attempts(), 2u);
  EXPECT_EQ(controller_.admitted(), 1u);
}

}  // namespace
}  // namespace frap::core
