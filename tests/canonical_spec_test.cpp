// Canonical (layout-free) specs, docs/dag_bounds.md: canonicalize() returns
// a spec whose `shape` owns the interned topology and whose `demands` own
// its per-node demands, critical-section segments included, with `nodes`
// and `edges` left empty. These tests pin that split: demands and segments
// take no part in shape identity, each canonical spec runs its own
// segments on the DAG runtime, and a spec that carries a layout next to
// its shape is refused in O(1).
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
  const auto touched = canon.shape->touched_resources();
  EXPECT_EQ(std::vector<std::uint32_t>(touched.begin(), touched.end()),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  ASSERT_NE(canon.demands, nullptr);
  EXPECT_EQ(canon.demands->node_compute.size(), raw.nodes.size());
  EXPECT_EQ(canon.demands->resource_compute.size(), touched.size());
}

// One shape, and each spec runs its own segments: layouts that differ only
// in their demands (a critical section, its lock id, an explicit single
// segment) intern to one topology, and each canonical spec keeps its own
// materialized segments.
TEST(CanonicalSpecTest, SegmentLayoutsDoNotAlias) {
  core::TaskGraphShapeRegistry registry;
  const auto plain = fork_join(1, 0.5, false);
  auto locked = plain;
  locked.nodes[1].demand = with_critical_section(
      locked.nodes[1].demand.compute);
  // Same compute, same topology: only node 1's segments differ.
  ASSERT_EQ(locked.nodes[1].demand.compute, plain.nodes[1].demand.compute);
  auto other_lock = locked;
  other_lock.nodes[1].demand.segments[1].lock = 1;
  auto explicit_plain = plain;
  explicit_plain.nodes[1].demand.segments = {
      sched::Segment{plain.nodes[1].demand.compute, sched::kNoLock}};

  const auto a = registry.canonicalize(plain);
  const auto b = registry.canonicalize(locked);
  const auto c = registry.canonicalize(other_lock);
  const auto d = registry.canonicalize(explicit_plain);
  EXPECT_EQ(b.shape, a.shape);
  EXPECT_EQ(c.shape, a.shape);
  EXPECT_EQ(d.shape, a.shape);
  EXPECT_EQ(registry.size(), 1u);

  // Each spec serves its own materialized segments per canonical node.
  auto locks_of = [](const core::GraphTaskSpec& spec) {
    std::vector<int> locks;
    for (std::size_t v = 0; v < spec.num_nodes(); ++v) {
      const auto segs = spec.demands->node_segments(v);
      EXPECT_FALSE(segs.empty());
      Duration sum = 0;
      for (const auto& seg : segs) {
        sum += seg.length;
        locks.push_back(seg.lock);
      }
      EXPECT_DOUBLE_EQ(sum, spec.demands->node_compute[v]);
    }
    return locks;
  };
  const int n = sched::kNoLock;
  EXPECT_EQ(locks_of(a), (std::vector<int>{n, n, n, n}));
  EXPECT_EQ(locks_of(b), (std::vector<int>{n, n, 0, n, n}));
  EXPECT_EQ(locks_of(c), (std::vector<int>{n, n, 1, n, n}));
  // An explicit single lock-free segment is the layout a plain demand runs.
  EXPECT_EQ(locks_of(d), locks_of(a));
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

// Twelve locked tasks and twelve lock-free ones share one shape. Run
// together from that shape, each task runs like the same task interned in
// a registry of its own, and the critical sections change the schedule.
TEST(CanonicalSpecTest, InternedCriticalSectionsRunLikeTheOriginal) {
  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> shared;
  std::vector<core::GraphTaskSpec> alone;
  std::vector<core::GraphTaskSpec> unlocked;
  std::vector<core::TaskGraphShapeRegistry> own(12);
  for (std::uint64_t i = 0; i < 12; ++i) {
    // Later arrivals are more urgent, so they preempt and meet held locks.
    const Duration deadline = 0.4 - 0.02 * static_cast<double>(i);
    shared.push_back(registry.canonicalize(fork_join(i + 1, deadline, true)));
    alone.push_back(own[i].canonicalize(fork_join(i + 1, deadline, true)));
    unlocked.push_back(
        registry.canonicalize(fork_join(i + 1, deadline, false)));
  }
  EXPECT_EQ(registry.size(), 1u);  // one shape, 24 canonical specs

  const auto from_shared = run(shared);
  ASSERT_EQ(from_shared.size(), shared.size());
  EXPECT_EQ(run(alone), from_shared);
  // The critical sections change the schedule, so the runtime really
  // executed each spec's own segments rather than one lock-free segment.
  EXPECT_NE(run(unlocked), from_shared);
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

// Long-path mode decides canonical specs only: an un-interned spec, which
// carries its own layout and no shape, is refused by the controller and by
// both snapshot evaluations.
TEST(CanonicalSpecDeathTest, LongPathModeRefusesAnUninternedSpec) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto spec = fork_join(1, 0.5, false);
  ASSERT_EQ(spec.shape, nullptr);

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::GraphAdmissionController controller(
      sim, tracker,
      core::LongPathEvaluator(std::vector<double>(kResources, 1.0), {},
                              core::LongPathEvaluator::kNoStageCap));
  EXPECT_DEATH((void)controller.try_admit(spec, sim.now()), "spec.shape");

  core::LongPathEvaluator eval(std::vector<double>(kResources, 1.0), {},
                               core::LongPathEvaluator::kNoStageCap);
  const std::vector<double> u(kResources, 0.1);
  EXPECT_DEATH((void)eval.lhs_from_snapshot(spec, u), "spec.shape");
  EXPECT_DEATH((void)eval.exact_lhs_from_snapshot(spec, u), "spec.shape");
}

}  // namespace
}  // namespace frap
