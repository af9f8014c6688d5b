// The zero-allocation invariant: once the pools are warm, the steady-state
// admit -> expire cycle — admission test, tracker add, expiry timer
// schedule, departures, idle resets, event-heap advance, typed expiry
// dispatch — performs ZERO heap allocations. Pinned with a per-binary
// operator new/delete replacement that counts while a flag is set.
//
// The counting window only ever covers single-threaded simulator code, but
// the counters are atomics so the hook itself is safe no matter what gtest
// internals do on other threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

// GCC pairs our replacement operator new (malloc-backed) with the library
// operator delete and flags the free() as mismatched; the replacement pair
// below is complete and consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "pipeline/pipeline_runtime.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace frap::core {
namespace {

constexpr std::size_t kStages = 5;

// A sparse spec with tiny contributions: at 10k live tasks the region is
// nowhere near full, so every attempt is admitted and the live count is
// governed purely by deadline = 1s vs the arrival spacing.
TaskSpec tiny_spec(std::uint64_t id) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = 1.0;
  spec.stages.resize(kStages);
  spec.stages[0].compute = 2e-8;
  spec.stages[2].compute = 1e-8;
  spec.stages[4].compute = 3e-8;
  return spec;
}

TEST(AllocSteadyStateTest, AdmitExpireCycleIsAllocationFree) {
  constexpr std::uint64_t kLiveTarget = 10000;
  constexpr Duration kSpacing = 1.0 / static_cast<double>(kLiveTarget);

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  AdmissionController controller(sim, tracker,
                                 FeasibleRegion::deadline_monotonic(kStages));

  // Warm-up: reach the steady live count and warm every pool (event heap
  // and nodes, slot map, arena, id map, departed queues, scratch).
  std::uint64_t id = 1;
  TaskSpec spec = tiny_spec(0);
  for (std::uint64_t i = 0; i < 2 * kLiveTarget; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    const auto d = controller.try_admit(spec, sim.now());
    ASSERT_TRUE(d.admitted);
    if (i % 3 == 0) {
      tracker.mark_departed(spec.id, 0);
      tracker.on_stage_idle(0);
    }
  }
  ASSERT_GE(tracker.live_tasks(), kLiveTarget - 1);

  // Steady state: measure 2000 full admit -> expire cycles. Every loop
  // iteration advances past exactly one expiry and admits one replacement,
  // plus a departure + idle reset every third cycle.
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 2000; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    // A failed admit is asserted after the counting window.
    if (!controller.try_admit(spec, sim.now()).admitted) break;
    if (i % 3 == 0) {
      tracker.mark_departed(spec.id, 0);
      tracker.on_stage_idle(0);
    }
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state admit/expire cycles must not allocate";
  EXPECT_GE(tracker.live_tasks(), kLiveTarget - 1);
  EXPECT_EQ(controller.attempts(), 2 * kLiveTarget + 2000);
  EXPECT_EQ(controller.admitted(), controller.attempts());
  tracker.verify_lhs_cache(1e-9);
}

// The ISSUE 9 extension of the same invariant: steady-state GRAPH admits
// through the long-path incremental fast path — profile evaluation over the
// interned shape, victim-guard cap checks, sparse commit, expiry — must not
// allocate either. The spec is canonicalized once; only its id changes per
// admission.
TEST(AllocSteadyStateTest, LongPathGraphAdmitCycleIsAllocationFree) {
  constexpr std::uint64_t kLiveTarget = 5000;
  constexpr Duration kSpacing = 1.0 / static_cast<double>(kLiveTarget);

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  GraphAdmissionController controller(
      sim, tracker,
      LongPathEvaluator(std::vector<double>(kStages, 1.0), {}, 0.5));

  // Diamond across four resources with tiny computes: the admit test stays
  // far from the budget, so the live count is deadline-governed.
  TaskGraphShapeRegistry registry;
  GraphTaskSpec raw;
  raw.id = 0;
  raw.deadline = 1.0;
  raw.nodes.resize(4);
  for (std::size_t v = 0; v < 4; ++v) {
    raw.nodes[v].resource = v % kStages;
    raw.nodes[v].demand.compute = 2e-8;
  }
  raw.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  GraphTaskSpec spec = registry.canonicalize(raw);

  std::uint64_t id = 1;
  for (std::uint64_t i = 0; i < 2 * kLiveTarget; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    ASSERT_TRUE(controller.try_admit(spec, sim.now()).admitted);
  }
  ASSERT_GE(tracker.live_tasks(), kLiveTarget - 1);

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 2000; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    if (!controller.try_admit(spec, sim.now()).admitted) break;
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state long-path graph admits must not allocate";
  EXPECT_EQ(controller.admitted(), controller.attempts());
  EXPECT_EQ(controller.attempts(), 2 * kLiveTarget + 2000);
  tracker.verify_lhs_cache(1e-9);
}

// Theorem 2's critical-path test, the evaluator's ratio-1 mode at
// alpha = 1: the same allocation-free cycle on a Fig. 3 fork/join. Each
// arrival carries its own demands (one canonical spec per demand draw,
// made before the counting window), all on one interned topology.
TEST(AllocSteadyStateTest, RatioOneGraphAdmitCycleIsAllocationFree) {
  constexpr std::uint64_t kLiveTarget = 5000;
  constexpr Duration kSpacing = 1.0 / static_cast<double>(kLiveTarget);

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  GraphAdmissionController controller(
      sim, tracker, LongPathEvaluator::ratio_one(kStages, 1.0, {}));

  TaskGraphShapeRegistry registry;
  util::Rng rng(11);
  std::vector<GraphTaskSpec> specs;
  for (int i = 0; i < 16; ++i) {
    GraphTaskSpec raw;
    raw.deadline = 1.0;
    raw.nodes.resize(4);
    for (std::size_t v = 0; v < 4; ++v) {
      raw.nodes[v].resource = v % kStages;
      raw.nodes[v].demand.compute = rng.uniform(1e-8, 3e-8);
    }
    raw.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    specs.push_back(registry.canonicalize(raw));
  }
  ASSERT_EQ(registry.size(), 1u);

  std::uint64_t id = 1;
  auto admit_next = [&] {
    sim.run_until(sim.now() + kSpacing);
    GraphTaskSpec& spec = specs[id % specs.size()];
    spec.id = id++;
    return controller.try_admit(spec, sim.now()).admitted;
  };
  for (std::uint64_t i = 0; i < 2 * kLiveTarget; ++i) {
    ASSERT_TRUE(admit_next());
  }
  ASSERT_GE(tracker.live_tasks(), kLiveTarget - 1);

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 2000; ++i) {
    if (!admit_next()) break;
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state ratio-1 graph admits must not allocate";
  EXPECT_EQ(controller.admitted(), controller.attempts());
  EXPECT_EQ(controller.attempts(), 2 * kLiveTarget + 2000);
  tracker.verify_lhs_cache(1e-9);
}

// The gray band of a capped shape (profile set incomplete): background load
// puts the heaviest path at 90% of the budget, so every attempt's two path
// values fall between the kept profiles and the envelope and the path-cap
// tier settles them. That tier must not allocate, and must keep the exact
// DP from running at all.
TEST(AllocSteadyStateTest, LongPathGrayBandAdmitCycleIsAllocationFree) {
  constexpr std::uint64_t kLiveTarget = 2000;
  constexpr Duration kSpacing = 1.0 / static_cast<double>(kLiveTarget);
  constexpr std::uint64_t kBackgroundId = 1ull << 40;

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  GraphAdmissionController controller(
      sim, tracker,
      LongPathEvaluator(std::vector<double>(kStages, 1.0), {}, 0.5));

  TaskGraphShapeRegistry registry;
  util::Rng rng(9);
  workload::RandomDagConfig cfg;
  cfg.kind = workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = 300;
  cfg.num_resources = kStages;
  cfg.edge_prob = 4.0 / 300.0;
  cfg.min_compute = 1e-9;
  cfg.max_compute = 2e-9;
  GraphTaskSpec spec =
      registry.canonicalize(workload::random_dag(rng, cfg, 0, 1.0));
  ASSERT_FALSE(spec.shape->profiles_complete());
  const std::vector<double> background(
      kStages, stage_delay_factor_inverse(
                   0.9 / static_cast<double>(spec.shape->max_path_nodes())));
  tracker.add(kBackgroundId, background, 1e6);

  std::uint64_t id = 1;
  for (std::uint64_t i = 0; i < 2 * kLiveTarget; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    ASSERT_TRUE(controller.try_admit(spec, sim.now()).admitted);
  }
  ASSERT_GE(tracker.live_tasks(), kLiveTarget - 1);
  const auto tiers = controller.long_path_evaluator()->tier_counts();

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 2000; ++i) {
    sim.run_until(sim.now() + kSpacing);
    spec.id = id++;
    if (!controller.try_admit(spec, sim.now()).admitted) break;
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state gray-band graph admits must not allocate";
  EXPECT_EQ(controller.admitted(), controller.attempts());
  const auto& after = controller.long_path_evaluator()->tier_counts();
  EXPECT_EQ(after.path_cap_admit - tiers.path_cap_admit, 2u * 2000u);
  EXPECT_EQ(after.dp, tiers.dp);
  tracker.verify_lhs_cache(1e-9);
}

// The exact DP tier: once the evaluator's scratch is warm, the exact value
// of an interned spec and the shape's quotient DP itself allocate nothing,
// whatever the weights.
TEST(AllocSteadyStateTest, LongPathExactDpIsAllocationFree) {
  TaskGraphShapeRegistry registry;
  util::Rng rng(5);
  workload::RandomDagConfig cfg;
  cfg.kind = workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = 1000;
  cfg.num_resources = kStages;
  cfg.edge_prob = 4.0 / 1000.0;
  const GraphTaskSpec spec =
      registry.canonicalize(workload::random_dag(rng, cfg, 1, 1.0));
  const TaskGraphShape& shape = *spec.shape;
  LongPathEvaluator eval(std::vector<double>(kStages, 1.0), {},
                         LongPathEvaluator::kNoStageCap);
  std::vector<double> u(kStages, 0.2);
  std::vector<double> w(kStages, 0.1);
  std::vector<double> scratch;
  double sum = eval.exact_lhs_from_snapshot(spec, u) +
               shape.longest_path_weight(w, scratch);

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) {
    for (std::size_t k = 0; k < kStages; ++k) {
      u[k] = rng.uniform(0.0, 0.5);
      w[k] = rng.uniform(0.0, 1.0);
    }
    sum += eval.exact_lhs_from_snapshot(spec, u);
    sum += shape.longest_path_weight(w, scratch);
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u) << "warm exact DP must not allocate";
  EXPECT_GT(sum, 0.0);
}

// The ISSUE 10 extension: the full wire-ingest cycle — zero-copy cursor
// decode, TaskSpec assembly through the session scratch, rebased replay
// (run_until + admit + commit + expiry) — must be allocation-free once the
// session and tracker pools are warm. This is the "zero-copy" claim of
// docs/wire_format.md made enforceable: the decoder holds no per-record
// state and the feed seam reuses one scratch spec.
TEST(AllocSteadyStateTest, IngestDecodeAdmitCycleIsAllocationFree) {
  constexpr std::size_t kRecords = 1000;
  constexpr Duration kSpacing = 1e-4;
  constexpr Duration kSpan = kRecords * kSpacing;  // 0.1 s per frame

  // Pre-encode one frame (producer side; allocations here are untimed).
  // Deadline < frame span so each epoch's ids expire before they recur.
  ingest::WireEncoder enc(kStages);
  {
    TaskSpec spec = tiny_spec(0);
    spec.deadline = 0.05;
    for (std::size_t k = 0; k < kRecords; ++k) {
      spec.id = k + 1;
      enc.add(static_cast<double>(k) * kSpacing, spec);
    }
  }
  const auto view = ingest::WireView::open(enc.frame());
  ASSERT_TRUE(view.valid());

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);
  AdmissionController controller(sim, tracker,
                                 FeasibleRegion::deadline_monotonic(kStages));
  ingest::IngestSession session(kStages);

  // Warm: a few epochs fill the session scratch, tracker pools, and heap.
  Time t = 0;
  for (int i = 0; i < 5; ++i) {
    const auto st = session.replay(view, controller, sim, nullptr, t);
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(st.admitted, kRecords);
    t += kSpan;
  }

  g_allocs.store(0);
  g_counting.store(true);
  std::uint64_t admitted = 0;
  for (int i = 0; i < 20; ++i) {
    admitted += session.replay(view, controller, sim, nullptr, t).admitted;
    t += kSpan;
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "wire decode -> assemble -> admit cycles must not allocate";
  EXPECT_EQ(admitted, 20u * kRecords);
  tracker.verify_lhs_cache(1e-9);
}

// remove_task (the shed path) must also be allocation-free in steady state,
// including the immediate removal of the expiry from the event heap.
TEST(AllocSteadyStateTest, RemoveTaskIsAllocationFree) {
  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kStages);

  const double add[kStages] = {1e-8, 0, 2e-8, 0, 1e-8};
  // Warm: create and remove a few hundred tasks.
  std::uint64_t id = 1;
  for (int i = 0; i < 500; ++i) {
    tracker.add(id, add, sim.now() + 1.0);
    tracker.remove_task(id);
    ++id;
  }

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    tracker.add(id, add, sim.now() + 1.0);
    tracker.remove_task(id);
    ++id;
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0u);
  EXPECT_EQ(tracker.live_tasks(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u)
      << "cancelled expiries must leave the event heap at once";
}

// Stage dispatch on a processor pool: choosing the top-m jobs, preempting,
// starting and completing them on an m = 2 stage must not allocate. Four
// reused jobs keep the pool saturated: each completion resubmits its job,
// so both processors stay busy (the meters record no new busy intervals)
// and the urgent resubmissions preempt less urgent runners.
TEST(AllocSteadyStateTest, PooledDispatchCycleIsAllocationFree) {
  struct Resubmitter final : sched::StageListener {
    std::uint64_t completions = 0;
    void on_job_complete(sched::StageServer& stage, sched::Job& job) override {
      ++completions;
      stage.submit(job);
    }
    void on_stage_idle(sched::StageServer& /*stage*/) override {}
  };

  sim::Simulator sim;
  sched::StageServer server(sim, "pool", sched::fixed_priority_policy(), 2);
  Resubmitter resubmitter;
  server.set_listener(&resubmitter);
  std::vector<std::unique_ptr<sched::Job>> jobs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    jobs.push_back(std::make_unique<sched::Job>(
        i + 1, static_cast<double>(i),
        std::vector<sched::Segment>{
            sched::Segment{0.5 + 0.25 * static_cast<double>(i),
                           sched::kNoLock}}));
    server.submit(*jobs.back());
  }
  sim.run_until(100.0);  // warm the event heap and the scratch buffers
  const std::uint64_t warm_completions = resubmitter.completions;
  const std::uint64_t warm_preemptions = server.preemptions();

  g_allocs.store(0);
  g_counting.store(true);
  sim.run_until(200.0);
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state pooled dispatch must not allocate";
  EXPECT_GT(resubmitter.completions - warm_completions, 100u);
  EXPECT_GT(server.preemptions() - warm_preemptions, 10u);
  EXPECT_EQ(server.active_jobs(), 4u);
}

// Starting and running a pipeline task through the task runtime allocates
// nothing of its own in steady state: the task lives in a recycled slot
// whose spec copy, node array and departure counts keep their capacity,
// its jobs borrow their segments from that spec, and segment completions
// are typed timers. What remains is the stage meters' busy history: each
// task closes one busy period per stage (8 per task here), and a meter's
// deque allocates one chunk per 32 periods, so the measured cost is ~0.25
// per task.
TEST(AllocSteadyStateTest, PipelineRuntimeTaskAllocationsAreBounded) {
  constexpr std::size_t kChain = 8;
  constexpr Duration kSpacing = 1e-3;
  constexpr std::uint64_t kMaxAllocsPerTask = 1;

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, kChain);
  pipeline::PipelineRuntime runtime(sim, kChain, &tracker);
  TaskSpec spec;
  spec.deadline = 0.05;
  spec.stages.resize(kChain);
  for (std::size_t j = 0; j < kChain; ++j) {
    spec.stages[j].compute = 1e-4 * static_cast<double>(1 + j % 3);
  }
  const std::vector<double> contrib = spec.contributions();

  std::uint64_t id = 1;
  auto start_one = [&] {
    spec.id = id++;
    tracker.add(spec.id, contrib, sim.now() + spec.deadline);
    runtime.start_task(spec, sim.now() + spec.deadline);
    sim.run_until(sim.now() + kSpacing);
  };
  // Warm-up: the event heap, the tracker's pools and both hash tables reach
  // their steady sizes.
  for (int i = 0; i < 5000; ++i) start_one();

  constexpr std::uint64_t kMeasured = 2000;
  g_allocs.store(0);
  g_counting.store(true);
  for (std::uint64_t i = 0; i < kMeasured; ++i) start_one();
  g_counting.store(false);

  const std::uint64_t allocs = g_allocs.load();
  EXPECT_LE(allocs, kMaxAllocsPerTask * kMeasured)
      << "per task: " << static_cast<double>(allocs) / kMeasured;
  sim.run();
  EXPECT_EQ(runtime.completed(), runtime.started());
  EXPECT_EQ(runtime.misses().ratio(), 0.0);
}

}  // namespace
}  // namespace frap::core
