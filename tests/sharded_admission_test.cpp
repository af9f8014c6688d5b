#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "support/reference_admitter.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "service/quota.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"

namespace frap::service {
namespace {

core::TaskSpec make_task(std::uint64_t id, double deadline,
                         std::vector<double> computes) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = deadline;
  spec.stages.resize(computes.size());
  for (std::size_t i = 0; i < computes.size(); ++i) {
    spec.stages[i].compute = computes[i];
  }
  return spec;
}

// ------------------------------------------------------------- QuotaPlan ---

TEST(QuotaPlanTest, EqualSplitByDefault) {
  QuotaPlan q(4);
  ASSERT_EQ(q.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(q.weight(k), 0.25);
}

TEST(QuotaPlanTest, SetWeightsAcceptsValidPartition) {
  QuotaPlan q(3, 0.05);
  q.set_weights({0.5, 0.3, 0.2});
  EXPECT_DOUBLE_EQ(q.weight(0), 0.5);
  EXPECT_DOUBLE_EQ(q.weight(1), 0.3);
  EXPECT_DOUBLE_EQ(q.weight(2), 0.2);
}

TEST(QuotaPlanTest, ProportionalSplitsSparebyDemand) {
  const std::vector<double> demand = {3.0, 1.0};
  const std::vector<double> floor = {0.1, 0.1};
  const auto w = QuotaPlan::proportional(demand, floor);
  ASSERT_EQ(w.size(), 2u);
  // spare = 0.8, split 3:1.
  EXPECT_NEAR(w[0], 0.1 + 0.8 * 0.75, 1e-12);
  EXPECT_NEAR(w[1], 0.1 + 0.8 * 0.25, 1e-12);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
}

TEST(QuotaPlanTest, ProportionalWithZeroDemandSplitsEqually) {
  const std::vector<double> demand = {0.0, 0.0, 0.0};
  const std::vector<double> floor = {0.2, 0.1, 0.1};
  const auto w = QuotaPlan::proportional(demand, floor);
  const double spare = 1.0 - 0.4;
  EXPECT_NEAR(w[0], 0.2 + spare / 3, 1e-12);
  EXPECT_NEAR(w[1], 0.1 + spare / 3, 1e-12);
  EXPECT_NEAR(w[2], 0.1 + spare / 3, 1e-12);
}

// ------------------------------------------------------- basic semantics ---

TEST(ShardedAdmissionTest, RoutesByIdModulo) {
  ShardedAdmissionService svc(core::FeasibleRegion::deadline_monotonic(2),
                              {.num_shards = 4});
  EXPECT_EQ(svc.num_shards(), 4u);
  EXPECT_EQ(svc.route(0), 0u);
  EXPECT_EQ(svc.route(5), 1u);
  EXPECT_EQ(svc.route(7), 3u);
}

TEST(ShardedAdmissionTest, HotPathAdmitsSmallTask) {
  // Default config: a small task clears the lock-free CAS reservation and
  // is confirmed by the exact test at commit.
  ShardedAdmissionService svc(core::FeasibleRegion::deadline_monotonic(2),
                              {.num_shards = 4});
  const auto d = svc.try_admit(make_task(1, 1.0, {0.01, 0.01}), 0.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, core::AdmissionDecision::Reason::kAtomicFastPath);
  EXPECT_DOUBLE_EQ(d.bound, svc.region().bound());
  const auto s = svc.stats();
  EXPECT_EQ(s.total_admits(), 1u);
  EXPECT_EQ(s.shards[svc.route(1)].atomic_admits, 1u);
  EXPECT_EQ(s.shards[svc.route(1)].admits, 0u);
  EXPECT_EQ(s.decisions, 1u);
}

TEST(ShardedAdmissionTest, AtomicPathOffRestoresLegacyReason) {
  // With the atomic path disabled the service behaves exactly as before it
  // existed: admits are reported kAdmitted on the mutex hot path.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 4, .enable_atomic_fast_path = false});
  const auto d = svc.try_admit(make_task(1, 1.0, {0.01, 0.01}), 0.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, core::AdmissionDecision::Reason::kAdmitted);
  const auto s = svc.stats();
  EXPECT_EQ(s.shards[svc.route(1)].admits, 1u);
  EXPECT_EQ(s.shards[svc.route(1)].atomic_admits, 0u);
  EXPECT_EQ(s.shards[svc.route(1)].atomic_inconclusive, 0u);
  EXPECT_EQ(s.decisions, 1u);
}

TEST(ShardedAdmissionTest, LocalRejectIsFinalWithoutFallback) {
  // A task consuming its full home-shard slice saturates the scaled view
  // (u = 0.25/0.25 = 1); with fallback disabled that is the answer.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 4, .enable_fallback = false});
  const auto d = svc.try_admit(make_task(4, 1.0, {0.25, 0.25}), 0.0);
  EXPECT_FALSE(d.admitted);
  // The saturated scaled view is certain without any lock: the decision is
  // settled on the atomic fast path (c_j >= 1 is state-independent).
  EXPECT_EQ(d.reason, core::AdmissionDecision::Reason::kStageSaturated);
  const auto s = svc.stats();
  EXPECT_EQ(s.shards[0].atomic_rejects, 1u);
  EXPECT_EQ(s.shards[0].rejects, 0u);
  EXPECT_EQ(s.shards[0].fallback_rejects, 0u);
}

TEST(ShardedAdmissionTest, FallbackStealsQuotaForOversizedTask) {
  // Same task, fallback enabled: every shard's equal slice saturates, but
  // shrinking the three empty donors to the weight floor grows the receiver
  // to w = 1 - 3*min_weight, where u = 0.25/w < 1 passes the region test.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 4});
  const auto d = svc.try_admit(make_task(4, 1.0, {0.25, 0.25}), 0.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, core::AdmissionDecision::Reason::kQuotaFallback);
  const auto s = svc.stats();
  EXPECT_EQ(s.total_admits(), 1u);
  std::uint64_t fb = 0;
  double weight_sum = 0;
  for (const auto& sh : s.shards) {
    fb += sh.fallback_admits;
    weight_sum += sh.weight;
  }
  EXPECT_EQ(fb, 1u);
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST(ShardedAdmissionTest, GlobalRejectionReportsTrueLhs) {
  // Two tasks that together exceed the whole region: the second is rejected
  // even by the fallback, and the decision carries the TRUE global LHS.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 2});
  const auto first = svc.try_admit(make_task(2, 1.0, {0.15, 0.15}), 0.0);
  ASSERT_TRUE(first.admitted);
  const auto d = svc.try_admit(make_task(3, 1.0, {0.3, 0.3}), 0.0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason,
            core::AdmissionDecision::Reason::kQuotaFallbackRejected);
  const auto u = svc.global_utilizations(0.0);
  EXPECT_NEAR(d.lhs_before, svc.region().lhs(u), 1e-9);
  EXPECT_GT(d.lhs_with_task, d.lhs_before);
  EXPECT_DOUBLE_EQ(d.bound, svc.region().bound());
}

// A quota move changes only each shard's view scale: the stored (true)
// loads stay bit-identical across a rebalance and across a quota steal.
// Rescaling the stored entries on each move would round them.
TEST(ShardedAdmissionTest, QuotaMovesLeaveTrueLoadBitIdentical) {
  constexpr std::size_t kStages = 8;
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(kStages),
      {.num_shards = 4});
  util::Rng rng(97);
  const Time now = 0.0;
  // Skew: every task on shard 0, long deadlines so nothing expires.
  for (std::uint64_t i = 1; i <= 40; ++i) {
    std::vector<double> computes(kStages);
    for (double& c : computes) c = rng.uniform(0.01, 0.03);
    ASSERT_TRUE(svc.try_admit(make_task(4 * i, 100.0, computes), now).admitted);
  }

  // Quota steal: the task fails any quarter slice, so it is admitted only
  // after the donors shrink. Shards 1-3 were empty, so the true load gains
  // exactly the task's contributions.
  const auto steal =
      make_task(5, 1.0, std::vector<double>(kStages, 0.05));
  const auto u_before_steal = svc.global_utilizations(now);
  const auto d = svc.try_admit(steal, now);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, core::AdmissionDecision::Reason::kQuotaFallback);
  auto expected = u_before_steal;
  for (std::size_t j = 0; j < kStages; ++j) {
    expected[j] += steal.stages[j].compute * util::safe_inv(steal.deadline);
  }
  EXPECT_EQ(svc.global_utilizations(now), expected);
  const auto after_steal = svc.stats();
  EXPECT_NE(after_steal.shards[0].weight, 0.25);

  // Rebalance toward demand moves the weights again.
  const auto u_before_rebalance = svc.global_utilizations(now);
  svc.rebalance(now);
  const auto after_rebalance = svc.stats();
  ASSERT_EQ(after_rebalance.rebalances, 1u);
  EXPECT_NE(after_rebalance.shards[0].weight, after_steal.shards[0].weight);
  EXPECT_EQ(svc.global_utilizations(now), u_before_rebalance);
}

// A task the unsharded region rejects is rejected before any quota is
// stolen: no weight moves, and the decision carries the true global pair.
TEST(ShardedAdmissionTest, GlobalPrecheckRejectsWithoutMovingWeights) {
  const auto region = core::FeasibleRegion::deadline_monotonic(2);
  ShardedAdmissionService svc(region,
                              {.num_shards = 4});
  const Time now = 0.0;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(
        svc.try_admit(make_task(i, 10.0, {0.3, 0.25}), now).admitted);
  }
  const auto weights_before = svc.stats();
  auto u = svc.global_utilizations(now);

  const auto spec = make_task(9, 1.0, {0.15, 0.2});
  const double lhs_before = region.lhs(u);
  const auto add = spec.contributions();
  for (std::size_t j = 0; j < u.size(); ++j) u[j] += add[j];
  const double lhs_with_task = region.lhs(u);
  ASSERT_FALSE(region.admits(lhs_with_task));
  ASSERT_TRUE(std::isfinite(lhs_with_task));

  const auto d = svc.try_admit(spec, now);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason,
            core::AdmissionDecision::Reason::kQuotaFallbackRejected);
  EXPECT_EQ(d.lhs_before, lhs_before);
  EXPECT_EQ(d.lhs_with_task, lhs_with_task);
  const auto weights_after = svc.stats();
  for (std::size_t k = 0; k < svc.num_shards(); ++k) {
    EXPECT_EQ(weights_after.shards[k].weight, weights_before.shards[k].weight)
        << "shard " << k;
  }
  EXPECT_EQ(weights_after.shards[svc.route(9)].fallback_rejects, 1u);
}

// ------------------------------------------------------ soundness (12k) ---

struct RandomWorkload {
  explicit RandomWorkload(std::uint64_t seed) : rng(seed) {}

  core::TaskSpec next(std::uint64_t id) {
    const std::size_t stages = 3;
    core::TaskSpec spec;
    spec.id = id;
    spec.deadline = rng.uniform(0.5, 4.0);
    spec.stages.resize(stages);
    // Mix of sparse and dense tasks; sized so the steady state hovers
    // around the region boundary (both admits and rejects occur).
    for (auto& s : spec.stages) {
      s.compute = rng.bernoulli(0.3) ? 0.0
                                     : rng.uniform(0.002, 0.05) * spec.deadline;
    }
    if (spec.stages[0].compute <= 0 && spec.stages[1].compute <= 0 &&
        spec.stages[2].compute <= 0) {
      spec.stages[0].compute = 0.05 * spec.deadline;
    }
    return spec;
  }

  util::Rng rng;
};

// The load-bearing theorem: a shard admission (local OR fallback) is always
// admitted by the unsharded reference evaluation over the same committed
// set. The mirror controller replays exactly the tasks the service admits,
// so by induction its state equals the service's true global state; every
// service admit must then pass the mirror's reference test.
TEST(ShardedAdmissionSoundnessTest, NeverAdmitsWhatGlobalReferenceRejects) {
  const auto region = core::FeasibleRegion::deadline_monotonic(3);
  ShardedAdmissionService svc(region, {.num_shards = 4});

  sim::Simulator mirror_sim;
  core::SyntheticUtilizationTracker mirror_tracker(mirror_sim, 3);
  core::AdmissionController mirror(mirror_sim, mirror_tracker, region);
  frap::testing::ReferenceAdmitter reference(mirror);

  RandomWorkload wl(20260805);
  Time now = 0.0;
  std::uint64_t admits = 0;
  std::uint64_t fallback_admits_seen = 0;
  for (std::uint64_t i = 1; i <= 12'000; ++i) {
    now += wl.rng.exponential(0.02);
    const auto spec = wl.next(i);
    const auto d = svc.try_admit(spec, now);
    if (!d.admitted) continue;
    ++admits;
    if (d.reason == core::AdmissionDecision::Reason::kQuotaFallback) {
      ++fallback_admits_seen;
    }
    mirror_sim.run_until(now);
    const auto ref = reference.try_admit(spec, now);
    ASSERT_TRUE(ref.admitted)
        << "task " << spec.id << " admitted by shard " << svc.route(spec.id)
        << " (reason " << core::to_string(d.reason)
        << ") but rejected by the global reference path: lhs_with_task="
        << ref.lhs_with_task << " bound=" << ref.bound;
  }
  // The scenario must actually exercise the region boundary and both paths.
  EXPECT_GT(admits, 500u);
  EXPECT_LT(admits, 11'500u);
  EXPECT_GT(fallback_admits_seen, 0u);

  // The mirror replayed exactly the admitted set, so the service's true
  // global utilization must match it.
  const auto u_svc = svc.global_utilizations(now);
  const auto u_ref = mirror_tracker.utilizations();
  ASSERT_EQ(u_svc.size(), u_ref.size());
  for (std::size_t j = 0; j < u_svc.size(); ++j) {
    EXPECT_NEAR(u_svc[j], u_ref[j], 1e-6) << "stage " << j;
  }
}

// The fallback path can only ADD admissions on top of pure-local quotas:
// it runs strictly after a local reject and never revokes anything. Across
// a long randomized run the fallback-enabled service must therefore admit
// at least as many tasks as the pure-local twin fed the same sequence.
// (Per-task set inclusion is not a theorem once histories diverge — the
// extra admits change later state — so this asserts the aggregate.)
TEST(ShardedAdmissionSoundnessTest, FallbackAdmitsAtLeastPureLocal) {
  const auto region = core::FeasibleRegion::deadline_monotonic(3);
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    ShardedAdmissionService with_fb(region, {.num_shards = 4});
    ShardedAdmissionService local_only(
        region,
        {.num_shards = 4, .enable_fallback = false});

    RandomWorkload wl(seed);
    Time now = 0.0;
    for (std::uint64_t i = 1; i <= 4'000; ++i) {
      now += wl.rng.exponential(0.02);
      const auto spec = wl.next(i);
      (void)with_fb.try_admit(spec, now);
      (void)local_only.try_admit(spec, now);
    }
    EXPECT_GE(with_fb.stats().total_admits(),
              local_only.stats().total_admits())
        << "seed " << seed;
  }
}

// ------------------------------------------------------------- rebalance ---

TEST(ShardedAdmissionTest, RebalanceShiftsWeightTowardLoadedShard) {
  // All arrivals target shard 0 (ids ≡ 0 mod 4). Under equal quotas the
  // shard saturates its slice; an explicit rebalance must grow its weight at
  // the expense of the idle shards.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 4, .enable_fallback = false});
  Time now = 0.0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto d =
        svc.try_admit(make_task(4 * (i + 1), 100.0, {0.1, 0.1}), now);
    ASSERT_TRUE(d.admitted);
  }
  const double w_before = svc.stats().shards[0].weight;
  EXPECT_DOUBLE_EQ(w_before, 0.25);

  svc.rebalance(now);

  const auto s = svc.stats();
  EXPECT_EQ(s.rebalances, 1u);
  EXPECT_GT(s.shards[0].weight, w_before);
  double sum = 0;
  for (const auto& sh : s.shards) {
    EXPECT_GE(sh.weight, svc.config().min_weight - 1e-9);
    sum += sh.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ShardedAdmissionTest, RebalanceUnlocksLocalAdmissionUnderSkew) {
  // With equal quotas a 0.2-per-stage task does not fit shard 0's quarter
  // slice on top of existing load; after skew-driven rebalance it does —
  // via the HOT path, without the fallback lock.
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 4, .enable_fallback = false});
  Time now = 0.0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const auto d =
        svc.try_admit(make_task(4 * (i + 1), 100.0, {0.1, 0.1}), now);
    ASSERT_TRUE(d.admitted);
  }
  const auto before = svc.try_admit(make_task(400, 100.0, {8.0, 8.0}), now);
  EXPECT_FALSE(before.admitted);

  svc.rebalance(now);

  const auto after = svc.try_admit(make_task(404, 100.0, {8.0, 8.0}), now);
  EXPECT_TRUE(after.admitted);
  // Locally decided (CAS reservation or exact retry inside the rounding
  // slack) — the point is that it is NOT a kQuotaFallback admission.
  EXPECT_TRUE(
      after.reason == core::AdmissionDecision::Reason::kAtomicFastPath ||
      after.reason == core::AdmissionDecision::Reason::kSlowPathFallback)
      << to_string(after.reason);
  EXPECT_GT(svc.stats().shards[0].weight, 0.25);
}

// ---------------------------------------------------------- concurrency ---

// Stress the hot path, fallback, and rebalance from many threads at once
// (each thread also calls rebalance() every 500 of its own decisions). Run
// under TSan in CI. Assertions are conservation laws: every attempt is
// counted exactly once somewhere.
TEST(ShardedAdmissionStressTest, ConcurrentCountersConserveDecisions) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 1'500;
  ShardedAdmissionService svc(core::FeasibleRegion::deadline_monotonic(3),
                              {.num_shards = 4});

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, t] {
      RandomWorkload wl(1000 + t);
      Time now = 0.0;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        now += wl.rng.exponential(0.05);
        const auto spec =
            wl.next(static_cast<std::uint64_t>(t) * 1'000'000 + i + 1);
        const auto d = svc.try_admit(spec, now);
        if (d.admitted) {
          ASSERT_LE(d.lhs_with_task, d.bound + 1e-9);
        }
        if (i % 500 == 499) svc.rebalance(now);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = svc.stats();
  EXPECT_EQ(s.decisions, kThreads * kPerThread);
  std::uint64_t counted = 0;
  double weight_sum = 0;
  for (const auto& sh : s.shards) {
    counted += sh.admits + sh.rejects + sh.fallback_admits +
               sh.fallback_rejects + sh.atomic_admits + sh.atomic_rejects;
    weight_sum += sh.weight;
  }
  EXPECT_EQ(counted, kThreads * kPerThread);
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);

  // The aggregate state must still be inside the region.
  Time horizon = 0.0;
  const auto u = svc.global_utilizations(horizon);
  double lhs = svc.region().lhs(u);
  EXPECT_TRUE(std::isfinite(lhs));
  EXPECT_LE(lhs, svc.region().bound() + 1e-6);
}

}  // namespace
}  // namespace frap::service
