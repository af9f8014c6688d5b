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

// --------------------------------------------------- waiting + headroom ---

GraphTaskSpec single_node(std::uint64_t id, std::size_t resource, Duration d,
                          Duration c) {
  GraphTaskSpec g;
  g.id = id;
  g.deadline = d;
  g.nodes = {GraphNode{resource, demand(c)}};
  return g;
}

// Regression for the re-walk-on-expire cost: a utilization decrease at a
// resource the front waiter does NOT touch must not invoke the evaluator at
// all (gate_skips), while a decrease at a touched resource retries exactly
// once. Pinned against GraphAdmissionController::evaluations().
TEST(WaitingGraphAdmissionTest, GateSkipsDecreasesOnUntouchedResources) {
  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, 4);
  GraphAdmissionController inner(
      sim, tracker, LongPathEvaluator(std::vector<double>(4, 10.0), {}));
  WaitingGraphAdmissionController waiting(sim, inner, 20.0);
  waiting.attach();
  std::vector<std::pair<std::uint64_t, bool>> decisions;
  waiting.set_decision_callback(
      [&](const GraphTaskSpec& s, const AdmissionDecision& d) {
        decisions.emplace_back(s.id, d.admitted);
      });

  // Blocker: u_0 = 0.5 until its expiry at t = 10.
  ASSERT_TRUE(inner.try_admit(single_node(1, 0, 10.0, 5.0), sim.now())
                  .admitted);
  // Five tasks on resource 3 whose departures (mark_departed + idle reset)
  // are decreases the waiter does not care about.
  for (int i = 0; i < 5; ++i) {
    const auto id = 10 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(
        inner.try_admit(single_node(id, 3, 10.0, 0.1), sim.now()).admitted);
    sim.at(1.0 + i, [&tracker, id] {
      tracker.mark_departed(id, 3);
      tracker.on_stage_idle(3);
    });
  }
  // Waiter on resource 0: would push u_0 to 0.7, f(0.7) > 1 -> parked.
  waiting.submit(single_node(2, 0, 10.0, 2.0));
  ASSERT_EQ(waiting.pending(), 1u);
  const std::uint64_t base = inner.evaluations();
  ASSERT_EQ(base, 7u);  // 1 blocker + 5 distractors + 1 failed submit

  // All five distractor expiries fire before t = 10: every one is gated
  // out with zero evaluator invocations.
  sim.run_until(9.9);
  EXPECT_EQ(inner.evaluations(), base);
  EXPECT_EQ(waiting.gate_skips(), 5u);
  EXPECT_EQ(waiting.pending(), 1u);

  // The blocker's expiry moves f at resource 0: exactly one retry, which
  // admits the waiter (u_0 becomes 0.2).
  sim.run();
  EXPECT_EQ(inner.evaluations(), base + 1);
  EXPECT_EQ(waiting.gate_skips(), 5u);
  EXPECT_EQ(waiting.pending(), 0u);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].first, 2u);
  EXPECT_TRUE(decisions[0].second);
}

// A timed-out front waiter must promote the next waiter AND retest it
// immediately: the newcomer was never evaluated against the current state
// (FIFO queues behind the front without testing), so promotion without a
// retry could strand an admissible task until the next decrease.
TEST(WaitingGraphAdmissionTest, TimeoutPromotesAndRetestsNextWaiter) {
  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, 4);
  GraphAdmissionController inner(
      sim, tracker, LongPathEvaluator(std::vector<double>(4, 10.0), {}));
  WaitingGraphAdmissionController waiting(sim, inner, 2.0);
  waiting.attach();
  std::vector<std::pair<std::uint64_t, AdmissionDecision>> decisions;
  waiting.set_decision_callback(
      [&](const GraphTaskSpec& s, const AdmissionDecision& d) {
        decisions.emplace_back(s.id, d);
      });

  ASSERT_TRUE(inner.try_admit(single_node(1, 0, 10.0, 5.0), sim.now())
                  .admitted);
  waiting.submit(single_node(2, 0, 10.0, 2.0));   // 0.7: parked
  waiting.submit(single_node(3, 0, 10.0, 0.5));   // would fit, queued FIFO
  ASSERT_EQ(waiting.pending(), 2u);
  // The queued submit must not have evaluated (FIFO discipline).
  ASSERT_EQ(inner.evaluations(), 2u);

  sim.run_until(3.0);  // waiter 2 times out at t = 2
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].first, 2u);
  EXPECT_FALSE(decisions[0].second.admitted);
  EXPECT_EQ(decisions[0].second.reason, AdmissionDecision::Reason::kTimedOut);
  // Promotion retested waiter 3 at the timeout instant and admitted it.
  EXPECT_EQ(decisions[1].first, 3u);
  EXPECT_TRUE(decisions[1].second.admitted);
  EXPECT_EQ(decisions[1].second.decided_at, 2.0);
  EXPECT_EQ(inner.evaluations(), 3u);
  EXPECT_EQ(waiting.pending(), 0u);
  EXPECT_EQ(waiting.timed_out(), 1u);
}

}  // namespace
}  // namespace frap::core
