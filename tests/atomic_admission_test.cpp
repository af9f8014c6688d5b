// Lock-free fixed-point admission path (ISSUE 6).
//
// Coverage, bottom-up:
//   * the 32.32 quantizer's conservative rounding and saturation,
//   * FeasibleRegion's quantized bound bracket and STRICT predicates
//     (boundary ties are inconclusive by design — the satellite-3
//     regression pins that at the try_reserve seam),
//   * AtomicAdmissionGuard's reservation/reconcile accounting invariant
//     (quantized LHS == committed floor + outstanding reservations),
//   * single-threaded A/B: the atomic-on service decides every arrival
//     identically to the atomic-off (pure mutex) service,
//   * liveness across the staleness horizon: fast rejects never strand a
//     shard whose capacity an expiry has freed,
//   * the 8-thread CAS-contention soundness sweep: >= 12k randomized
//     arrivals, then a per-shard exact mirror replays the committed set and
//     must re-admit every atomic-path admission (zero unsound admits).
//     Run under TSan in CI (the "Atomic" name matches the matrix filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/fixed_point.h"
#include "support/reference_admitter.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "service/atomic_admission.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"

namespace frap::service {
namespace {

using core::AdmissionDecision;
namespace fixed = core::fixed;

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

// ----------------------------------------------------- fixed-point quanta ---

TEST(AtomicFixedPointTest, RoundingDirectionsAreConservative) {
  for (double x : {0.0, 1e-12, 0.125, 0.3, 1.0, 2.718281828, 1000.5}) {
    const std::uint64_t up = fixed::quantize_up(x);
    const std::uint64_t down = fixed::quantize_down(x);
    EXPECT_LE(down, up);
    EXPECT_LE(up - down, 1u) << x;          // exact representables tie
    EXPECT_LE(fixed::to_double(down), x) << x;
    EXPECT_GE(fixed::to_double(up), x) << x;
  }
  EXPECT_EQ(fixed::quantize_up(0.0), 0u);
  EXPECT_EQ(fixed::quantize_down(0.0), 0u);
  // One quantum is 2^-32: far below any admission-relevant magnitude.
  EXPECT_DOUBLE_EQ(fixed::to_double(1), fixed::kResolution);
}

TEST(AtomicFixedPointTest, SaturationIsSticky) {
  EXPECT_EQ(fixed::quantize_up(util::kInf), fixed::kSaturated);
  EXPECT_EQ(fixed::quantize_down(util::kInf), fixed::kSaturated);
  EXPECT_EQ(fixed::quantize_up(1e30), fixed::kSaturated);
  // add_sat clamps on overflow and at the saturation sentinel.
  EXPECT_EQ(fixed::add_sat(fixed::kSaturated, 1), fixed::kSaturated);
  EXPECT_EQ(fixed::add_sat(fixed::kSaturated, fixed::kSaturated),
            fixed::kSaturated);
  EXPECT_EQ(fixed::add_sat(3, 4), 7u);
}

// --------------------------------------------- quantized region predicates --

TEST(AtomicQuantizedRegionTest, BoundBracketIsOrderedAndTight) {
  const auto region = core::FeasibleRegion::deadline_monotonic(5);
  const std::uint64_t floor = region.quantized_bound_floor();
  const std::uint64_t ceil = region.quantized_bound_ceil();
  EXPECT_LE(floor, ceil);
  EXPECT_EQ(region.quantization_slack_quanta(), ceil - floor);
  EXPECT_LE(region.quantization_slack_quanta(), 1u);
  EXPECT_LE(fixed::to_double(floor), region.bound());
  EXPECT_GE(fixed::to_double(ceil), region.bound());
}

TEST(AtomicQuantizedRegionTest, PredicatesAreStrictOnTies) {
  const auto region = core::FeasibleRegion::deadline_monotonic(5);
  const std::uint64_t floor = region.quantized_bound_floor();
  const std::uint64_t ceil = region.quantized_bound_ceil();
  // A quantized LHS exactly ON the floor must NOT admit (tie -> exact path).
  EXPECT_TRUE(core::FeasibleRegion::admits_quantized(floor - 1, floor));
  EXPECT_FALSE(core::FeasibleRegion::admits_quantized(floor, floor));
  // A quantized LHS exactly ON the ceiling must NOT fast-reject.
  EXPECT_FALSE(core::FeasibleRegion::rejects_quantized(ceil, ceil));
  EXPECT_TRUE(core::FeasibleRegion::rejects_quantized(ceil + 1, ceil));
}

// ------------------------------------------------------ guard unit tests ---

TEST(AtomicGuardTest, BoundaryTieReservationIsRefused) {
  // Satellite-3 regression: a delta that quantizes exactly onto the bound
  // floor must be refused by the CAS predicate (and retried exactly by the
  // service), never admitted optimistically.
  const auto region = core::FeasibleRegion::deadline_monotonic(3);
  AtomicAdmissionGuard guard(region);
  const std::uint64_t qb = guard.bound_floor();
  EXPECT_FALSE(guard.try_reserve(qb));      // lands exactly on the floor
  EXPECT_TRUE(guard.try_reserve(qb - 1));   // one quantum of headroom
  EXPECT_EQ(guard.quantized_lhs(), qb - 1);
  EXPECT_FALSE(guard.try_reserve(1));       // tie again, from a loaded base
  EXPECT_EQ(guard.quantized_lhs(), qb - 1); // refused CAS left no residue
}

TEST(AtomicGuardTest, ReserveReconcileAccountingInvariant) {
  const auto region = core::FeasibleRegion::deadline_monotonic(3);
  AtomicAdmissionGuard guard(region);
  EXPECT_EQ(guard.staleness_horizon(), util::kInf);

  // Reserve, then convert the reservation into committed state.
  const std::uint64_t r1 = fixed::quantize_up(0.1);
  ASSERT_TRUE(guard.try_reserve(r1));
  EXPECT_EQ(guard.quantized_lhs(), r1);
  EXPECT_EQ(guard.committed_floor(), 0u);
  guard.reconcile_locked(0.1, 5.0, r1);
  EXPECT_EQ(guard.committed_floor(), fixed::quantize_down(0.1));
  EXPECT_EQ(guard.quantized_lhs(), guard.committed_floor());
  EXPECT_EQ(guard.staleness_horizon(), 5.0);

  // An expiry drain (floor moves DOWN) while another reservation is
  // outstanding: the outstanding quanta must survive the fetch_add.
  const std::uint64_t r2 = fixed::quantize_up(0.02);
  ASSERT_TRUE(guard.try_reserve(r2));
  guard.reconcile_locked(0.05, util::kInf, 0);
  EXPECT_EQ(guard.committed_floor(), fixed::quantize_down(0.05));
  EXPECT_EQ(guard.quantized_lhs(), guard.committed_floor() + r2);

  // Abandoning the reservation (exact path declined) releases it.
  guard.reconcile_locked(0.05, util::kInf, r2);
  EXPECT_EQ(guard.quantized_lhs(), guard.committed_floor());
}

TEST(AtomicGuardTest, SaturatingTaskIsCertainRejectOnlyWhenAllowed) {
  const auto region = core::FeasibleRegion::deadline_monotonic(2);
  AtomicAdmissionGuard guard(region);
  // Scaled contribution 0.25/0.25 = 1.0 saturates the stage.
  const auto spec = make_task(1, 1.0, {0.25, 0.25});
  auto r = guard.classify(spec, 4.0, 0.0, /*allow_fast_reject=*/true);
  EXPECT_EQ(r.verdict, AtomicAdmissionGuard::Verdict::kReject);
  EXPECT_TRUE(r.saturates);
  EXPECT_TRUE(std::isinf(r.delta_floor));
  // Under tracing the service forbids lock-free rejects entirely.
  r = guard.classify(spec, 4.0, 0.0, /*allow_fast_reject=*/false);
  EXPECT_EQ(r.verdict, AtomicAdmissionGuard::Verdict::kInconclusive);
}

TEST(AtomicGuardTest, FastRejectGatedByStalenessHorizon) {
  const auto region = core::FeasibleRegion::deadline_monotonic(2);
  AtomicAdmissionGuard guard(region);
  // Publish a committed state one probe short of the bound, with the next
  // expiry at t = 10.
  guard.reconcile_locked(region.bound() * 0.99, 10.0, 0);
  const auto probe = make_task(1, 1.0, {0.1, 0.1});  // d_lo ~ 2*f(0.4)
  // Inside the horizon the under-bound clearly exceeds the headroom.
  auto r = guard.classify(probe, 4.0, 5.0, true);
  EXPECT_EQ(r.verdict, AtomicAdmissionGuard::Verdict::kReject);
  EXPECT_FALSE(r.saturates);
  // AT or past the horizon a pending expiry may have freed capacity: the
  // guard must defer to the exact path (reservation near the bound fails).
  r = guard.classify(probe, 4.0, 10.0, true);
  EXPECT_EQ(r.verdict, AtomicAdmissionGuard::Verdict::kInconclusive);
}

// ------------------------------------------------- single-threaded A/B -----

TEST(AtomicServiceABTest, DecidesIdenticallyToMutexPath) {
  // Same seeded arrival stream through the atomic-on and atomic-off
  // services: every verdict must match. The atomic path may only shortcut
  // decisions the exact path would take identically (fast rejects are
  // horizon-gated; inconclusives and commits re-run the exact test).
  ShardedAdmissionConfig on_cfg{.num_shards = 4, .enable_fallback = false};
  ShardedAdmissionConfig off_cfg = on_cfg;
  off_cfg.enable_atomic_fast_path = false;
  ShardedAdmissionService on(core::FeasibleRegion::deadline_monotonic(3),
                             on_cfg);
  ShardedAdmissionService off(core::FeasibleRegion::deadline_monotonic(3),
                              off_cfg);

  util::Rng rng(42);
  Time now = 0.0;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  for (std::uint64_t i = 1; i <= 4000; ++i) {
    now += rng.exponential(0.02);
    core::TaskSpec spec;
    spec.id = i;
    spec.deadline = rng.uniform(0.5, 4.0);
    spec.stages.resize(3);
    for (auto& s : spec.stages) {
      s.compute =
          rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.002, 0.05) * spec.deadline;
    }
    if (spec.stages[0].compute <= 0 && spec.stages[1].compute <= 0 &&
        spec.stages[2].compute <= 0) {
      spec.stages[0].compute = 0.05 * spec.deadline;
    }
    const auto d_on = on.try_admit(spec, now);
    const auto d_off = off.try_admit(spec, now);
    ASSERT_EQ(d_on.admitted, d_off.admitted)
        << "arrival " << i << " at t=" << now << ": atomic="
        << to_string(d_on.reason) << " mutex=" << to_string(d_off.reason);
    (d_on.admitted ? admits : rejects) += 1;
  }
  // The sweep only means something if it crossed the boundary both ways.
  EXPECT_GT(admits, 100u);
  EXPECT_GT(rejects, 100u);
  // And the atomic path actually engaged.
  const auto s = on.stats();
  std::uint64_t atomic_settled = 0;
  for (const auto& sh : s.shards) {
    atomic_settled += sh.atomic_admits + sh.atomic_rejects;
  }
  EXPECT_GT(atomic_settled, 0u);
}

// ------------------------------------------------------------- liveness ----

TEST(AtomicLivenessTest, AdmitsResumeAfterExpiryHorizon) {
  ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(2),
      {.num_shards = 2, .enable_fallback = false});
  // Fill shard 0 close to its slice (scaled u = 2*0.21/0.5 = 0.84/stage...
  // enough that the probe below cannot also fit), expiring at t = 1.
  const double w = 0.5;
  ASSERT_TRUE(
      svc.try_admit(make_task(2, 1.0, {0.21 * w, 0.21 * w}), 0.0).admitted);
  const auto probe = make_task(4, 1.0, {0.2 * w, 0.2 * w});
  const auto before = svc.try_admit(probe, 0.5);
  EXPECT_FALSE(before.admitted);
  // Past the fill's expiry the same probe must be admitted: the stale
  // quantized view defers to the exact path (now >= horizon), which drains
  // the expiry and frees the capacity. A fast reject here would be a
  // liveness bug.
  const auto after = svc.try_admit(make_task(6, 1.0, {0.2 * w, 0.2 * w}), 2.0);
  EXPECT_TRUE(after.admitted);
}

// -------------------------------------- 8-thread mirror-replay soundness ---

TEST(AtomicStressTest, MirrorReplayFindsNoUnsoundAdmits) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 1'600;  // 12.8k total, >= 12k (ISSUE)
  constexpr std::size_t kStages = 5;
  constexpr std::size_t kShards = 4;
  const auto region = core::FeasibleRegion::deadline_monotonic(kStages);
  // No fallback, no rebalance, one fixed presentation instant and deadlines
  // far in the future: shard weights never move and nothing expires, so the
  // committed set is exactly the admitted set and — every prefix of a
  // feasible set being feasible — an exact mirror may replay it in ANY
  // order.
  ShardedAdmissionService svc(
      region,
      {.num_shards = kShards, .enable_fallback = false});

  struct Recorded {
    core::TaskSpec spec;
    AdmissionDecision decision;
  };
  std::vector<std::vector<Recorded>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, &per_thread, t] {
      util::Rng rng(9000 + t);
      auto& out = per_thread[t];
      out.reserve(kPerThread);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        core::TaskSpec spec;
        spec.id = static_cast<std::uint64_t>(t) * 1'000'000 + i + 1;
        spec.deadline = 1000.0;
        spec.stages.resize(kStages);
        bool any = false;
        for (auto& s : spec.stages) {
          s.compute = rng.bernoulli(0.3)
                          ? 0.0
                          : rng.uniform(2e-5, 2e-4) * spec.deadline;
          any = any || s.compute > 0;
        }
        if (!any) spec.stages[0].compute = 1e-4 * spec.deadline;
        const auto d = svc.try_admit(spec, 0.0);
        out.push_back({spec, d});
      }
    });
  }
  for (auto& th : threads) th.join();

  // Counter conservation: every attempt was settled on exactly one path.
  const auto s = svc.stats();
  std::uint64_t attempts = 0;
  for (const auto& v : per_thread) attempts += v.size();
  EXPECT_EQ(s.decisions, attempts);
  std::uint64_t counted = 0;
  std::uint64_t atomic_admits = 0;
  for (const auto& sh : s.shards) {
    counted += sh.admits + sh.rejects + sh.atomic_admits + sh.atomic_rejects;
    atomic_admits += sh.atomic_admits;
    EXPECT_DOUBLE_EQ(sh.weight, 1.0 / kShards);  // never moved
  }
  EXPECT_EQ(counted, attempts);
  EXPECT_GT(atomic_admits, 0u);  // the CAS path must actually be exercised

  // Exact mirror per shard: a fresh full-evaluation ReferenceAdmitter at
  // the shard's (unchanged) weight replays the committed set. EVERY
  // admission — in particular every kAtomicFastPath one — must re-admit.
  std::uint64_t replayed = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    sim::Simulator sim;
    core::SyntheticUtilizationTracker tracker(sim, kStages);
    tracker.set_view_scale(static_cast<double>(kShards));
    core::AdmissionController controller(sim, tracker, region);
    frap::testing::ReferenceAdmitter mirror(controller);
    for (const auto& v : per_thread) {
      for (const auto& rec : v) {
        if (!rec.decision.admitted || svc.route(rec.spec.id) != k) continue;
        const auto replay = mirror.try_admit(rec.spec, 0.0);
        ASSERT_TRUE(replay.admitted)
            << "unsound admit: task " << rec.spec.id << " (reason "
            << to_string(rec.decision.reason) << ") rejected by mirror with "
            << "lhs_with_task=" << replay.lhs_with_task
            << " bound=" << replay.bound;
        ++replayed;
      }
    }
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace frap::service
