// Canonical (layout-free) specs, docs/dag_bounds.md: canonicalize() returns
// a spec whose `shape` owns the whole per-node layout, critical-section
// segments included, with `nodes` and `edges` left empty. These tests pin
// that the layout really lives in the shape: segments take part in shape
// identity, the DAG runtime executes them from the shape, and a spec that
// carries a layout next to its shape is refused in O(1).
#include <gtest/gtest.h>

#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sched/job.h"
#include "sim/simulator.h"

namespace frap {
namespace {

constexpr std::size_t kResources = 4;

core::StageDemand lock_free(Duration c) {
  core::StageDemand d;
  d.compute = c;
  return d;
}

// c split into a lock-free head and a critical section on lock 0.
core::StageDemand with_critical_section(Duration c) {
  core::StageDemand d;
  d.compute = c;
  d.segments = {sched::Segment{c / 4, sched::kNoLock},
                sched::Segment{c - c / 4, 0}};
  return d;
}

// Fig. 3 fork/join, one node per resource: 0 -> {1, 2} -> 3. The two
// parallel nodes carry critical sections when `locked`.
core::GraphTaskSpec fork_join(std::uint64_t id, Duration deadline,
                              bool locked) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = deadline;
  const Duration c = 10 * kMilli;
  g.nodes = {core::GraphNode{0, lock_free(c)},
             core::GraphNode{1, locked ? with_critical_section(c)
                                       : lock_free(c)},
             core::GraphNode{2, locked ? with_critical_section(2 * c)
                                       : lock_free(2 * c)},
             core::GraphNode{3, lock_free(c)}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  return g;
}

TEST(CanonicalSpecTest, CanonicalSpecIsLayoutFree) {
  core::TaskGraphShapeRegistry registry;
  const auto raw = fork_join(7, 0.5, true);
  const auto canon = registry.canonicalize(raw);
  ASSERT_NE(canon.shape, nullptr);
  EXPECT_TRUE(canon.nodes.empty());
  EXPECT_TRUE(canon.edges.empty());
  EXPECT_EQ(canon.id, raw.id);
  EXPECT_EQ(canon.deadline, raw.deadline);
  EXPECT_EQ(canon.num_nodes(), raw.nodes.size());
  EXPECT_TRUE(canon.valid(kResources));
  EXPECT_FALSE(canon.valid(3));  // touches resource 3
  EXPECT_EQ(canon.touched_resources(), raw.touched_resources());
}

TEST(CanonicalSpecTest, SegmentLayoutsDoNotAlias) {
  core::TaskGraphShapeRegistry registry;
  const auto plain = fork_join(1, 0.5, false);
  auto locked = plain;
  locked.nodes[1].demand = with_critical_section(
      locked.nodes[1].demand.compute);
  // Same compute, same topology: only node 1's segments differ.
  ASSERT_EQ(locked.nodes[1].demand.compute, plain.nodes[1].demand.compute);
  const auto* a = registry.intern(plain);
  const auto* b = registry.intern(locked);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.size(), 2u);

  // A different lock id on the same split is a different layout too.
  auto other_lock = locked;
  other_lock.nodes[1].demand.segments[1].lock = 1;
  EXPECT_NE(registry.intern(other_lock), b);

  // An explicit single lock-free segment runs exactly like no segments,
  // and interns to the same shape.
  auto explicit_plain = plain;
  explicit_plain.nodes[1].demand.segments = {
      sched::Segment{plain.nodes[1].demand.compute, sched::kNoLock}};
  EXPECT_EQ(registry.intern(explicit_plain), a);

  // The shape serves the materialized segments per canonical node.
  std::size_t locked_nodes = 0;
  for (std::size_t v = 0; v < b->num_nodes(); ++v) {
    const auto segs = b->node_segments(v);
    ASSERT_FALSE(segs.empty());
    Duration sum = 0;
    for (const auto& s : segs) sum += s.length;
    EXPECT_DOUBLE_EQ(sum, b->node_compute()[v]);
    if (segs.size() == 2 && segs[1].lock == 0) ++locked_nodes;
  }
  EXPECT_EQ(locked_nodes, 1u);
}

struct Completion {
  std::uint64_t id;
  Duration response;
  bool missed;
  bool operator==(const Completion&) const = default;
};

// Staggered fork/join tasks with distinct deadlines (so distinct
// deadline-monotonic priorities) whose critical sections contend for lock 0
// on resources 1 and 2.
std::vector<Completion> run(const std::vector<core::GraphTaskSpec>& specs) {
  sim::Simulator sim;
  pipeline::DagRuntime runtime(sim, kResources, nullptr);
  for (std::size_t k = 0; k < kResources; ++k) {
    runtime.stage(k).locks().set_ceiling(0, 0.1);
  }
  std::vector<Completion> done;
  runtime.set_on_task_complete(
      [&](const core::GraphTaskSpec& s, Duration r, bool m) {
        done.push_back({s.id, r, m});
      });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::GraphTaskSpec& spec = specs[i];
    sim.at(static_cast<double>(i) * 7 * kMilli,
           [&runtime, &sim, &spec] {
             runtime.start_task(spec, sim.now() + spec.deadline);
           });
  }
  sim.run();
  EXPECT_EQ(runtime.completed(), specs.size());
  return done;
}

TEST(CanonicalSpecTest, InternedCriticalSectionsRunLikeTheOriginal) {
  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> raw;
  std::vector<core::GraphTaskSpec> canon;
  std::vector<core::GraphTaskSpec> unlocked;
  for (std::uint64_t i = 0; i < 12; ++i) {
    // Later arrivals are more urgent, so they preempt and meet held locks.
    const Duration deadline = 0.4 - 0.02 * static_cast<double>(i);
    raw.push_back(fork_join(i + 1, deadline, true));
    canon.push_back(registry.canonicalize(raw.back()));
    unlocked.push_back(fork_join(i + 1, deadline, false));
  }
  EXPECT_EQ(registry.size(), 1u);  // one shape, twelve canonical specs

  const auto from_raw = run(raw);
  const auto from_canon = run(canon);
  ASSERT_EQ(from_raw.size(), raw.size());
  EXPECT_EQ(from_canon, from_raw);
  // The critical sections change the schedule, so the runtime really
  // executed the shape's segments rather than one lock-free segment.
  EXPECT_NE(run(unlocked), from_raw);
}

TEST(CanonicalSpecDeathTest, LayoutNextToAShapeIsRefused) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  core::TaskGraphShapeRegistry registry;
  auto spec = registry.canonicalize(fork_join(1, 0.5, false));
  spec.nodes.push_back(core::GraphNode{0, lock_free(kMilli)});
  EXPECT_FALSE(spec.valid(kResources));

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::GraphAdmissionController controller(
      sim, tracker,
      core::LongPathEvaluator(std::vector<double>(kResources, 1.0), {},
                              core::LongPathEvaluator::kNoStageCap));
  EXPECT_DEATH((void)controller.try_admit(spec, sim.now()), "nodes.empty");

  pipeline::DagRuntime runtime(sim, kResources, nullptr);
  EXPECT_DEATH(runtime.start_task(spec, 1.0), "nodes.empty");
}

}  // namespace
}  // namespace frap
