#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "pipeline/dag_runtime.h"
#include "sim/simulator.h"

namespace frap::pipeline {
namespace {

core::StageDemand demand(Duration c) {
  core::StageDemand d;
  d.compute = c;
  return d;
}

// Fig. 3 fork/join: node0 -> {node1, node2} -> node3, resources 0..3.
core::GraphTaskSpec fig3(std::uint64_t id, Duration deadline,
                         std::vector<Duration> computes) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = deadline;
  g.nodes = {core::GraphNode{0, demand(computes[0])},
             core::GraphNode{1, demand(computes[1])},
             core::GraphNode{2, demand(computes[2])},
             core::GraphNode{3, demand(computes[3])}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  return g;
}

struct Done {
  std::uint64_t id;
  Duration response;
  bool missed;
};

class DagRuntimeTest : public ::testing::Test {
 protected:
  void build(std::size_t resources, bool with_tracker = true) {
    if (with_tracker) tracker_.emplace(sim_, resources);
    runtime_.emplace(sim_, resources,
                     with_tracker ? &tracker_.value() : nullptr);
    runtime_->set_on_task_complete(
        [this](const core::GraphTaskSpec& s, Duration r, bool m) {
          done_.push_back({s.id, r, m});
        });
  }

  sim::Simulator sim_;
  std::optional<core::SyntheticUtilizationTracker> tracker_;
  std::optional<DagRuntime> runtime_;
  std::vector<Done> done_;
};

TEST_F(DagRuntimeTest, ForkJoinRespectsPrecedence) {
  build(4);
  sim_.at(0.0, [&] {
    runtime_->start_task(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0}), 100.0);
  });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  // Critical path on empty resources: 1 + max(2,5) + 1 = 7.
  EXPECT_DOUBLE_EQ(done_[0].response, 7.0);
  EXPECT_FALSE(done_[0].missed);
}

TEST_F(DagRuntimeTest, BranchesRunInParallelOnDistinctResources) {
  build(4);
  sim_.at(0.0, [&] {
    runtime_->start_task(fig3(1, 100.0, {1.0, 3.0, 3.0, 1.0}), 100.0);
  });
  sim_.run();
  // If branches serialized this would be 1+3+3+1=8; parallel: 1+3+1=5.
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 5.0);
}

TEST_F(DagRuntimeTest, SharedResourceSerializesNodes) {
  // Both branch nodes mapped to resource 1: they serialize.
  build(3);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(1.0)}, core::GraphNode{1, demand(3.0)},
             core::GraphNode{1, demand(3.0)}, core::GraphNode{2, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  sim_.at(0.0, [&] { runtime_->start_task(g, 100.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 8.0);  // 1 + (3+3) + 1
}

TEST_F(DagRuntimeTest, ChainBehavesLikePipeline) {
  build(2);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 10.0;
  g.nodes = {core::GraphNode{0, demand(1.0)}, core::GraphNode{1, demand(2.0)}};
  g.edges = {core::GraphEdge{0, 1}};
  sim_.at(0.0, [&] { runtime_->start_task(g, 10.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 3.0);
}

TEST_F(DagRuntimeTest, IndependentNodesAllStartImmediately) {
  build(3);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 10.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}, core::GraphNode{1, demand(3.0)},
             core::GraphNode{2, demand(1.0)}};
  sim_.at(0.0, [&] { runtime_->start_task(g, 10.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 3.0);  // max of the three
}

TEST_F(DagRuntimeTest, MissDetection) {
  build(2);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 1.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}};
  sim_.at(0.0, [&] { runtime_->start_task(g, 1.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_TRUE(done_[0].missed);
  EXPECT_DOUBLE_EQ(runtime_->misses().ratio(), 1.0);
}

TEST_F(DagRuntimeTest, DepartureFiresWhenLastNodeOnResourceFinishes) {
  build(2);
  // Two nodes on resource 0 in sequence, then one on resource 1.
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(1.0)}, core::GraphNode{0, demand(1.0)},
             core::GraphNode{1, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{1, 2}};
  tracker_->add(1, std::vector<double>{0.5, 0.5}, 100.0);
  sim_.at(0.0, [&] { runtime_->start_task(g, 100.0); });
  // At t=1.5 (after first node, before second) resource 0 has NOT been
  // departed: an idle reset there must keep the contribution. The server
  // never idles mid-sequence here, but the invariant we check is that the
  // contribution survives until the second node completes.
  sim_.run();
  EXPECT_DOUBLE_EQ(tracker_->utilization(0), 0.0);
  EXPECT_DOUBLE_EQ(tracker_->utilization(1), 0.0);
}

TEST_F(DagRuntimeTest, TwoTasksInterleaveByPriority) {
  build(1);
  core::GraphTaskSpec urgent;
  urgent.id = 1;
  urgent.deadline = 1.0;
  urgent.nodes = {core::GraphNode{0, demand(0.5)}};
  core::GraphTaskSpec lax;
  lax.id = 2;
  lax.deadline = 50.0;
  lax.nodes = {core::GraphNode{0, demand(2.0)}};
  sim_.at(0.0, [&] { runtime_->start_task(lax, 50.0); });
  sim_.at(0.1, [&] { runtime_->start_task(urgent, 1.1); });
  sim_.run();
  ASSERT_EQ(done_.size(), 2u);
  EXPECT_EQ(done_[0].id, 1u);  // DM: shorter deadline preempts
  EXPECT_DOUBLE_EQ(done_[0].response, 0.5);
}

TEST_F(DagRuntimeTest, DiamondWithWideFanout) {
  build(4);
  // Source fans out to 5 parallel nodes on round-robin resources, then join.
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes.push_back(core::GraphNode{0, demand(1.0)});  // source
  for (std::size_t i = 0; i < 5; ++i) {
    g.nodes.push_back(core::GraphNode{i % 4, demand(1.0)});
  }
  g.nodes.push_back(core::GraphNode{3, demand(1.0)});  // sink
  for (std::size_t i = 1; i <= 5; ++i) {
    g.edges.push_back(core::GraphEdge{0, i});
    g.edges.push_back(core::GraphEdge{i, 6});
  }
  sim_.at(0.0, [&] { runtime_->start_task(g, 100.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  // Source 1s; fanout: resource 0 runs nodes 1 and 5 serially (2s), others
  // 1s; join 1s on resource 3 -> 1 + 2 + 1 = 4.
  EXPECT_DOUBLE_EQ(done_[0].response, 4.0);
  EXPECT_EQ(runtime_->completed(), 1u);
}

TEST_F(DagRuntimeTest, TraceRecordsLifecycle) {
  build(4);
  TraceLog log;
  runtime_->set_trace(&log);
  sim_.at(0.0, [&] {
    runtime_->start_task(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0}), 100.0);
  });
  sim_.run();
  const auto events = log.for_task(1);
  // Release + 4 resource departures + complete.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events.front().kind, TraceEventKind::kRelease);
  EXPECT_EQ(events.back().kind, TraceEventKind::kComplete);
  EXPECT_EQ(events.back().detail, 0u);
  EXPECT_EQ(log.count(TraceEventKind::kStageDeparture), 4u);
}

TEST_F(DagRuntimeTest, AbortRemovesAllNodes) {
  build(4);
  TraceLog log;
  runtime_->set_trace(&log);
  sim_.at(0.0, [&] {
    runtime_->start_task(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0}), 100.0);
  });
  sim_.at(1.5, [&] { runtime_->abort_task(1); });  // branches mid-flight
  sim_.run();
  EXPECT_TRUE(done_.empty());
  EXPECT_EQ(runtime_->aborted(), 1u);
  EXPECT_FALSE(runtime_->task_in_flight(1));
  // The trace closes the task's lifecycle with a Shed record at the abort.
  const auto events = log.for_task(1);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, TraceEventKind::kShed);
  EXPECT_DOUBLE_EQ(events.back().time, 1.5);
  EXPECT_EQ(log.count(TraceEventKind::kShed), 1u);
  // Node 3 (the join) never ran.
  EXPECT_DOUBLE_EQ(runtime_->resource(3).meter().busy_time(0.0, 100.0), 0.0);
}

TEST_F(DagRuntimeTest, AbortUnknownIsNoop) {
  build(2);
  runtime_->abort_task(42);
  EXPECT_EQ(runtime_->aborted(), 0u);
}

TEST_F(DagRuntimeTest, StartedExecutingPredicate) {
  build(2);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}, core::GraphNode{1, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}};
  // A higher-priority hog delays the task so it is queued but unstarted.
  core::GraphTaskSpec hog;
  hog.id = 2;
  hog.deadline = 1.0;  // more urgent under DM
  hog.nodes = {core::GraphNode{0, demand(5.0)}};
  sim_.at(0.0, [&] {
    runtime_->start_task(hog, 1.0);
    runtime_->start_task(g, 100.0);
  });
  sim_.at(1.0, [&] {
    EXPECT_TRUE(runtime_->task_started_executing(2));   // the hog runs
    EXPECT_FALSE(runtime_->task_started_executing(1));  // still queued
  });
  sim_.run();
  EXPECT_TRUE(runtime_->task_started_executing(1));  // completed
}

TEST_F(DagRuntimeTest, ResourceUtilizations) {
  build(2, /*with_tracker=*/false);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}, core::GraphNode{1, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}};
  sim_.at(0.0, [&] { runtime_->start_task(g, 100.0); });
  sim_.run();
  sim_.run_until(10.0);
  const auto u = runtime_->resource_utilizations(0.0, 10.0);
  EXPECT_DOUBLE_EQ(u[0], 0.2);
  EXPECT_DOUBLE_EQ(u[1], 0.1);
}

}  // namespace
}  // namespace frap::pipeline
