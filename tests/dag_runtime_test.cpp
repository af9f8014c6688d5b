#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "obs/stage_observer.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "support/reference_graph.h"
#include "util/rng.h"

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

// The runtime takes canonical specs only; every test interns its graphs
// here first.
core::GraphTaskSpec canonical(const core::GraphTaskSpec& raw) {
  static core::TaskGraphShapeRegistry registry;
  return registry.canonicalize(raw);
}

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
    runtime_->start_task(canonical(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0})),
                         100.0);
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
    runtime_->start_task(canonical(fig3(1, 100.0, {1.0, 3.0, 3.0, 1.0})),
                         100.0);
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
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 100.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_DOUBLE_EQ(done_[0].response, 8.0);  // 1 + (3+3) + 1
}

// A pipeline is the chain case of a task graph: a TaskSpec stream and the
// same stream as canonical from_pipeline chains must run identically
// through the one runtime — completion ids and times,
// responses, misses, the shedding predicate at every abort, and the
// tracker's utilizations after every simulator event, all bit for bit.
TEST_F(DagRuntimeTest, ChainBehavesLikePipeline) {
  struct Completion {
    std::uint64_t id;
    Time at;
    Duration response;
    bool missed;
    bool operator==(const Completion&) const = default;
  };
  struct Shed {
    std::uint64_t id;
    bool in_flight;
    bool started_executing;
    bool operator==(const Shed&) const = default;
  };
  constexpr int kSeeds = 200;
  std::uint64_t total_completions = 0;
  std::uint64_t total_misses = 0;
  std::uint64_t sheds_started = 0;
  std::uint64_t sheds_unstarted = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(static_cast<std::uint64_t>(seed) + 1);
    const auto stages = static_cast<std::size_t>(rng.uniform_int(1, 5));

    sim::Simulator psim;
    sim::Simulator dsim;
    core::SyntheticUtilizationTracker ptracker(psim, stages);
    core::SyntheticUtilizationTracker dtracker(dsim, stages);
    PipelineRuntime pipe(psim, stages, &ptracker);
    DagRuntime dag(dsim, stages, &dtracker);
    core::TaskGraphShapeRegistry registry;
    std::vector<Completion> pdone;
    std::vector<Completion> ddone;
    std::vector<Shed> pshed;
    std::vector<Shed> dshed;
    pipe.set_on_task_complete(
        [&](const core::TaskSpec& s, Duration r, bool m) {
          pdone.push_back({s.id, psim.now(), r, m});
        });
    dag.set_on_task_complete(
        [&](const core::GraphTaskSpec& s, Duration r, bool m) {
          ddone.push_back({s.id, dsim.now(), r, m});
        });

    // Overloaded on purpose (no admission), so queues build, priorities
    // interleave, some deadlines are missed and aborts hit queued and
    // running tasks alike.
    Time t = 0;
    for (std::uint64_t id = 1; id <= 40; ++id) {
      t += rng.exponential(0.6);
      core::TaskSpec spec;
      spec.id = id;
      spec.deadline = rng.uniform(1.0, 8.0);
      spec.stages.resize(stages);
      for (auto& st : spec.stages) {
        st.compute = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.05, 1.0);
      }
      const auto graph =
          registry.canonicalize(frap::testing::from_pipeline(spec));
      const auto contrib = spec.contributions();
      psim.at(t, [&pipe, &ptracker, &psim, spec, contrib] {
        ptracker.add(spec.id, contrib, psim.now() + spec.deadline);
        pipe.start_task(spec, psim.now() + spec.deadline);
      });
      dsim.at(t, [&dag, &dtracker, &dsim, graph, contrib] {
        dtracker.add(graph.id, contrib, dsim.now() + graph.deadline);
        dag.start_task(graph, dsim.now() + graph.deadline);
      });
      if (rng.bernoulli(0.15)) {
        const Time abort_at = t + rng.uniform(0.0, 2.0);
        psim.at(abort_at, [&pipe, &ptracker, &pshed, id] {
          pshed.push_back({id, pipe.task_in_flight(id),
                           pipe.task_started_executing(id)});
          if (!pipe.task_in_flight(id)) return;
          ptracker.remove_task(id);
          pipe.abort_task(id);
        });
        dsim.at(abort_at, [&dag, &dtracker, &dshed, id] {
          dshed.push_back({id, dag.task_in_flight(id),
                           dag.task_started_executing(id)});
          if (!dag.task_in_flight(id)) return;
          dtracker.remove_task(id);
          dag.abort_task(id);
        });
      }
    }

    std::vector<double> pu(stages);
    std::vector<double> du(stages);
    while (true) {
      const std::size_t pn = psim.step();
      const std::size_t dn = dsim.step();
      ASSERT_EQ(pn, dn);
      if (pn == 0) break;
      ASSERT_EQ(psim.now(), dsim.now());
      ptracker.utilizations(pu);
      dtracker.utilizations(du);
      ASSERT_EQ(pu, du) << "at t = " << psim.now();
      ASSERT_EQ(pdone, ddone) << "at t = " << psim.now();
      ASSERT_EQ(pshed, dshed) << "at t = " << psim.now();
    }
    EXPECT_EQ(pipe.started(), dag.started());
    EXPECT_EQ(pipe.completed(), dag.completed());
    EXPECT_EQ(pipe.aborted(), dag.aborted());
    EXPECT_EQ(pipe.misses().ratio(), dag.misses().ratio());
    EXPECT_EQ(pipe.completed() + pipe.aborted(), 40u);
    total_completions += pipe.completed();
    total_misses += pipe.misses().hits();
    for (const Shed& shed : pshed) {
      if (!shed.in_flight) continue;
      ++(shed.started_executing ? sheds_started : sheds_unstarted);
    }
  }
  // The streams exercised completions, misses, and aborts of both queued
  // and already-running tasks.
  EXPECT_GT(total_completions, 100u * kSeeds / 4);
  EXPECT_GT(total_misses, 0u);
  EXPECT_GT(sheds_started, 0u);
  EXPECT_GT(sheds_unstarted, 0u);
}

TEST_F(DagRuntimeTest, IndependentNodesAllStartImmediately) {
  build(3);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 10.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}, core::GraphNode{1, demand(3.0)},
             core::GraphNode{2, demand(1.0)}};
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 10.0); });
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
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 1.0); });
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
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 100.0); });
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
  sim_.at(0.0, [&] { runtime_->start_task(canonical(lax), 50.0); });
  sim_.at(0.1, [&] { runtime_->start_task(canonical(urgent), 1.1); });
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
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 100.0); });
  sim_.run();
  ASSERT_EQ(done_.size(), 1u);
  // Source 1s; fanout: resource 0 runs nodes 1 and 5 serially (2s), others
  // 1s; join 1s on resource 3 -> 1 + 2 + 1 = 4.
  EXPECT_DOUBLE_EQ(done_[0].response, 4.0);
  EXPECT_EQ(runtime_->completed(), 1u);
}

TEST_F(DagRuntimeTest, TraceRecordsLifecycle) {
  build(4);
  obs::StageObserver observer(4);
  runtime_->set_stage_observer(&observer);
  sim_.at(0.0, [&] {
    runtime_->start_task(canonical(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0})),
                         100.0);
    EXPECT_EQ(runtime_->started(), 1u);  // released
  });
  sim_.run();
  // One departure per resource, then completion without a miss.
  for (const auto& st : observer.snapshot()) {
    EXPECT_EQ(st.enqueued, 1u) << "stage " << st.stage;
    EXPECT_EQ(st.departed, 1u) << "stage " << st.stage;
  }
  const auto snap = observer.snapshot();
  EXPECT_DOUBLE_EQ(snap[0].max_sojourn, 1.0);
  EXPECT_DOUBLE_EQ(snap[1].max_sojourn, 2.0);
  EXPECT_DOUBLE_EQ(snap[2].max_sojourn, 5.0);
  EXPECT_DOUBLE_EQ(snap[3].max_sojourn, 1.0);  // join released at t = 6
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].id, 1u);
  EXPECT_FALSE(done_[0].missed);
  EXPECT_EQ(runtime_->completed(), 1u);
  EXPECT_EQ(runtime_->aborted(), 0u);
}

TEST_F(DagRuntimeTest, AbortRemovesAllNodes) {
  build(4);
  obs::StageObserver observer(4);
  runtime_->set_stage_observer(&observer);
  sim_.at(0.0, [&] {
    runtime_->start_task(canonical(fig3(1, 100.0, {1.0, 2.0, 5.0, 1.0})),
                         100.0);
  });
  sim_.at(1.5, [&] {  // branches mid-flight
    runtime_->abort_task(1);
    // The shed closes the task's lifecycle at the abort.
    EXPECT_EQ(runtime_->aborted(), 1u);
  });
  sim_.run();
  EXPECT_TRUE(done_.empty());
  EXPECT_EQ(runtime_->aborted(), 1u);
  EXPECT_FALSE(runtime_->task_in_flight(1));
  // Both running branches left their resources at the abort (entered at
  // t = 1), so every depth gauge is back to zero.
  const auto snap = observer.snapshot();
  EXPECT_DOUBLE_EQ(snap[1].max_sojourn, 0.5);
  EXPECT_DOUBLE_EQ(snap[2].max_sojourn, 0.5);
  for (const auto& st : snap) EXPECT_EQ(st.queue_depth, 0u);
  // Node 3 (the join) never ran.
  EXPECT_EQ(snap[3].enqueued, 0u);
  EXPECT_DOUBLE_EQ(runtime_->stage(3).meter().busy_time(0.0, 100.0), 0.0);
}

// With two processors on the shared resource, a fork's two branches run in
// parallel there: the join is released at max(branch), not at the sum.
TEST(DagRuntimePoolTest, SharedResourceBranchesRunInParallel) {
  sim::Simulator sim;
  DagRuntime runtime(sim, 3, nullptr, sched::fixed_priority_policy(), 2);
  obs::StageObserver observer(3);
  runtime.set_stage_observer(&observer);
  std::vector<Done> done;
  runtime.set_on_task_complete(
      [&](const core::GraphTaskSpec& s, Duration r, bool m) {
        done.push_back({s.id, r, m});
      });
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(1.0)}, core::GraphNode{1, demand(3.0)},
             core::GraphNode{1, demand(2.0)}, core::GraphNode{2, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  sim.at(0.0, [&] { runtime.start_task(canonical(g), 100.0); });
  sim.run_until(3.9);
  EXPECT_EQ(observer.snapshot()[2].enqueued, 0u);
  sim.run_until(4.0);
  // Join released at 1 + max(3, 2) = 4; one processor would give 1 + 5.
  EXPECT_EQ(observer.snapshot()[2].enqueued, 1u);
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].response, 5.0);
  const auto snap = observer.snapshot();
  EXPECT_DOUBLE_EQ(snap[1].max_sojourn, 3.0);  // neither branch queued
  EXPECT_DOUBLE_EQ(runtime.stage(1).meter(0).busy_time(0.0, 10.0) +
                       runtime.stage(1).meter(1).busy_time(0.0, 10.0),
                   5.0);
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
    runtime_->start_task(canonical(hog), 1.0);
    runtime_->start_task(canonical(g), 100.0);
  });
  sim_.at(1.0, [&] {
    EXPECT_TRUE(runtime_->task_started_executing(2));   // the hog runs
    EXPECT_FALSE(runtime_->task_started_executing(1));  // still queued
  });
  sim_.run();
  EXPECT_TRUE(runtime_->task_started_executing(1));  // completed
}

// A random DAG of 1-9 nodes on `resources` resources; some demands carry
// explicit (lock-free) segment lists, the rest one implicit segment.
core::GraphTaskSpec random_graph(util::Rng& rng, std::uint64_t id,
                                 std::size_t resources) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = 1000.0;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 9));
  for (std::size_t v = 0; v < n; ++v) {
    core::StageDemand d;
    if (rng.bernoulli(0.3)) {
      const auto segs = rng.uniform_int(2, 3);
      for (std::int64_t k = 0; k < segs; ++k) {
        d.segments.push_back(
            sched::Segment{rng.uniform(0.05, 0.5), sched::kNoLock});
        d.compute += d.segments.back().length;
      }
    } else {
      d.compute = rng.uniform(0.1, 2.0);
    }
    g.nodes.push_back(core::GraphNode{
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(resources) - 1)),
        d});
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(0.3)) g.edges.push_back(core::GraphEdge{u, v});
    }
  }
  return g;
}

// Tasks of different node counts run one at a time, so each reuses the
// slot (node array, departure counts) its predecessor freed: growing and
// shrinking node counts. Each must complete exactly as the same task alone
// in a fresh runtime, released at the same instant.
TEST(DagRuntimeSlotTest, TasksOfDifferentSizesCycleThroughOneSlot) {
  constexpr std::size_t kResources = 4;
  constexpr std::size_t kTasks = 120;
  util::Rng rng(77);
  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> specs;
  std::size_t total_nodes = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    const core::GraphTaskSpec g = random_graph(rng, i + 1, kResources);
    total_nodes += g.num_nodes();
    specs.push_back(registry.canonicalize(g));
  }

  struct Completion {
    std::uint64_t id;
    Time at;
    Duration response;
    bool missed;
    bool operator==(const Completion&) const = default;
  };
  sim::Simulator sim;
  DagRuntime runtime(sim, kResources, nullptr);
  obs::StageObserver observer(kResources);
  runtime.set_stage_observer(&observer);
  std::vector<Completion> done;
  std::vector<Time> released;
  const std::function<void()> start_next = [&] {
    const core::GraphTaskSpec& g = specs[released.size()];
    released.push_back(sim.now());
    runtime.start_task(g, sim.now() + g.deadline);
  };
  runtime.set_on_task_complete(
      [&](const core::GraphTaskSpec& g, Duration r, bool m) {
        EXPECT_FALSE(runtime.task_in_flight(g.id));
        done.push_back({g.id, sim.now(), r, m});
        // A later event, so the next task starts once this slot is free.
        if (released.size() < kTasks) sim.after(0.0, start_next);
      });
  sim.at(0.0, start_next);
  sim.run();
  ASSERT_EQ(done.size(), kTasks);
  EXPECT_EQ(runtime.started(), kTasks);
  EXPECT_EQ(runtime.completed(), kTasks);

  for (std::size_t i = 0; i < kTasks; ++i) {
    SCOPED_TRACE(::testing::Message() << "task " << i);
    sim::Simulator rsim;
    DagRuntime fresh(rsim, kResources, nullptr);
    std::vector<Completion> ref;
    fresh.set_on_task_complete(
        [&](const core::GraphTaskSpec& g, Duration r, bool m) {
          ref.push_back({g.id, rsim.now(), r, m});
        });
    rsim.at(released[i], [&] {
      fresh.start_task(specs[i], released[i] + specs[i].deadline);
    });
    rsim.run();
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_EQ(done[i], ref[0]);
  }

  std::uint64_t enqueued = 0;
  for (const auto& st : observer.snapshot()) {
    EXPECT_EQ(st.queue_depth, 0u);
    enqueued += st.enqueued;
  }
  EXPECT_EQ(enqueued, total_nodes);
}

TEST_F(DagRuntimeTest, ResourceUtilizations) {
  build(2, /*with_tracker=*/false);
  core::GraphTaskSpec g;
  g.id = 1;
  g.deadline = 100.0;
  g.nodes = {core::GraphNode{0, demand(2.0)}, core::GraphNode{1, demand(1.0)}};
  g.edges = {core::GraphEdge{0, 1}};
  sim_.at(0.0, [&] { runtime_->start_task(canonical(g), 100.0); });
  sim_.run();
  sim_.run_until(10.0);
  const auto u = runtime_->stage_utilizations(0.0, 10.0);
  EXPECT_DOUBLE_EQ(u[0], 0.2);
  EXPECT_DOUBLE_EQ(u[1], 0.1);
}

}  // namespace
}  // namespace frap::pipeline
