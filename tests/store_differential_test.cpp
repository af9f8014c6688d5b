// Differential A/B sweep for the slot-map/typed-timer tracker store: the
// production SyntheticUtilizationTracker
// and the preserved PR-1 ReferenceUtilizationTracker are driven through
// identical randomized mutation histories — >= 12k arrivals interleaved with
// expiries, departures, idle resets, shedding removals, and view-scale moves —
// and must produce bit-identical admission decisions and utilizations that
// agree to <= 1e-6 at every step.
//
// Decisions on the reference side are full evaluations through the shared
// FeasibleRegion::admits_lhs predicate (the two stores are *storage*
// variants of one policy; the predicate must be the single source of truth).
// Ids are never reused: the reference keeps PR-1's raw-id departed queues,
// whose id-reuse aliasing the slot-map store intentionally fixes
// (docs/perf_internals.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "support/reference_tracker.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"

namespace frap::core {
namespace {

constexpr std::size_t kStages = 6;
constexpr int kArrivals = 12500;

TaskSpec random_task(util::Rng& rng, std::uint64_t id) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = rng.uniform(0.4, 4.0);
  spec.stages.resize(kStages);
  for (auto& s : spec.stages) {
    // Sparse (~half untouched) with occasional wide tasks so both the
    // inline (<= 4 touched) and arena (> 4 touched) store paths run.
    if (rng.bernoulli(0.55)) s.compute = rng.uniform(0.0, 0.1) * spec.deadline;
  }
  return spec;
}

// Full-evaluation admission against the reference tracker, through the same
// shared predicate the production controller uses.
bool reference_admit(const testing::ReferenceUtilizationTracker& tracker,
                     const FeasibleRegion& region, const TaskSpec& spec) {
  double lhs = 0;
  for (std::size_t j = 0; j < kStages; ++j) {
    const double u =
        tracker.utilization(j) +
        util::safe_div(spec.stages[j].compute, spec.deadline) *
            tracker.view_scale();
    lhs += stage_delay_factor(u);
  }
  return FeasibleRegion::admits_lhs(lhs, region.bound());
}

void expect_same_utilizations(const SyntheticUtilizationTracker& a,
                              const testing::ReferenceUtilizationTracker& b,
                              int step) {
  for (std::size_t j = 0; j < kStages; ++j) {
    EXPECT_NEAR(a.utilization(j), b.utilization(j), 1e-6)
        << "stage " << j << " at step " << step;
  }
}

TEST(StoreDifferentialTest, TwelveKArrivalSweepBitIdentical) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  SyntheticUtilizationTracker store(sim_a, kStages);
  testing::ReferenceUtilizationTracker ref(sim_b, kStages);
  const auto region = FeasibleRegion::deadline_monotonic(kStages);
  AdmissionController controller(sim_a, store, region);

  util::Rng rng(20260805);
  std::uint64_t mismatches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t removed = 0;
  std::uint64_t rescales = 0;
  std::vector<std::uint64_t> live_ids;

  for (int i = 1; i <= kArrivals; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const auto spec = random_task(rng, id);

    const Time t = sim_a.now() + rng.exponential(0.015);
    sim_a.run_until(t);
    sim_b.run_until(t);

    const auto decision = controller.try_admit(spec, sim_a.now());
    const bool ref_ok = reference_admit(ref, region, spec);
    if (decision.admitted != ref_ok) ++mismatches;
    if (decision.admitted) {
      // Mirror the commit into the reference store.
      std::vector<double> add(kStages);
      for (std::size_t j = 0; j < kStages; ++j) {
        add[j] = util::safe_div(spec.stages[j].compute, spec.deadline);
      }
      ref.add(id, add, t + spec.deadline);
      live_ids.push_back(id);
      ++admitted;
    }

    // Interleave the remaining mutations on BOTH stores.
    if (!live_ids.empty() && rng.bernoulli(0.35)) {
      const auto victim = live_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_ids.size()) - 1))];
      const auto stage =
          static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
      store.mark_departed(victim, stage);
      ref.mark_departed(victim, stage);
      if (rng.bernoulli(0.6)) {
        store.on_stage_idle(stage);
        ref.on_stage_idle(stage);
      }
    }
    if (!live_ids.empty() && rng.bernoulli(0.08)) {
      // Shed a random live task (mirrors SheddingAdmissionController).
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_ids.size()) - 1));
      const auto victim = live_ids[k];
      live_ids[k] = live_ids.back();
      live_ids.pop_back();
      store.remove_task(victim);
      ref.remove_task(victim);
      ++removed;
    }
    if (rng.bernoulli(0.002)) {
      // Quota-weight move (sharded service path).
      const double scale = rng.uniform(0.6, 1.5);
      store.set_view_scale(scale);
      ref.set_view_scale(scale);
      ++rescales;
    }

    // Expired ids linger in live_ids; drop them lazily so the shed pick
    // above mostly hits live tasks (remove_task is a no-op otherwise —
    // identically on both stores).
    if (i % 512 == 0) {
      std::erase_if(live_ids,
                    [&](std::uint64_t v) { return !store.is_live(v); });
      expect_same_utilizations(store, ref, i);
      EXPECT_EQ(store.live_tasks(), ref.live_tasks()) << "step " << i;
      EXPECT_NEAR(store.cached_lhs(), ref.cached_lhs(), 1e-6) << "step " << i;
    }
  }

  EXPECT_EQ(mismatches, 0u);
  // The sweep must exercise both outcomes and every mutation kind.
  EXPECT_GT(admitted, 1000u);
  EXPECT_LT(admitted, static_cast<std::uint64_t>(kArrivals));
  EXPECT_GT(removed, 100u);
  EXPECT_GE(rescales, 5u);

  // Drain both simulators: every remaining expiry fires; final state agrees.
  sim_a.run();
  sim_b.run();
  EXPECT_EQ(store.live_tasks(), 0u);
  EXPECT_EQ(ref.live_tasks(), 0u);
  expect_same_utilizations(store, ref, kArrivals + 1);
  store.verify_lhs_cache(1e-9);
  ref.verify_lhs_cache(1e-9);
}

// Idle reset disabled (ablation A1) must behave identically too.
TEST(StoreDifferentialTest, AblationNoIdleResetMatches) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  SyntheticUtilizationTracker store(sim_a, kStages);
  testing::ReferenceUtilizationTracker ref(sim_b, kStages);
  store.set_idle_reset_enabled(false);
  ref.set_idle_reset_enabled(false);

  util::Rng rng(42);
  for (int i = 1; i <= 2000; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const auto spec = random_task(rng, id);
    const Time t = sim_a.now() + rng.exponential(0.01);
    sim_a.run_until(t);
    sim_b.run_until(t);
    std::vector<double> add(kStages);
    for (std::size_t j = 0; j < kStages; ++j) {
      add[j] = util::safe_div(spec.stages[j].compute, spec.deadline);
    }
    store.add(id, add, t + spec.deadline);
    ref.add(id, add, t + spec.deadline);
    const auto stage =
        static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
    store.mark_departed(id, stage);
    ref.mark_departed(id, stage);
    store.on_stage_idle(stage);  // no-op under the ablation
    ref.on_stage_idle(stage);
    if (i % 256 == 0) expect_same_utilizations(store, ref, i);
  }
  sim_a.run();
  sim_b.run();
  EXPECT_EQ(store.live_tasks(), 0u);
  EXPECT_EQ(ref.live_tasks(), 0u);
}

// Reservations interact with both stores' clamping identically.
TEST(StoreDifferentialTest, ReservationsMatch) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  SyntheticUtilizationTracker store(sim_a, kStages);
  testing::ReferenceUtilizationTracker ref(sim_b, kStages);
  for (std::size_t j = 0; j < kStages; ++j) {
    store.set_reservation(j, 0.05 * static_cast<double>(j));
    ref.set_reservation(j, 0.05 * static_cast<double>(j));
  }
  util::Rng rng(9);
  for (int i = 1; i <= 1000; ++i) {
    const auto spec = random_task(rng, static_cast<std::uint64_t>(i));
    const Time t = sim_a.now() + rng.exponential(0.02);
    sim_a.run_until(t);
    sim_b.run_until(t);
    std::vector<double> add(kStages);
    for (std::size_t j = 0; j < kStages; ++j) {
      add[j] = util::safe_div(spec.stages[j].compute, spec.deadline);
    }
    store.add(static_cast<std::uint64_t>(i), add, t + spec.deadline);
    ref.add(static_cast<std::uint64_t>(i), add, t + spec.deadline);
    if (i % 128 == 0) expect_same_utilizations(store, ref, i);
  }
  sim_a.run();
  sim_b.run();
  expect_same_utilizations(store, ref, 1001);
}

// ISSUE 6 satellite: pins the PR-1 id-reuse aliasing defect and its fix.
//
// Scenario: task 7 departs stage 0 (queueing a raw-id entry), is removed,
// and its id is REUSED by a brand-new task; then stage 0 goes idle.
//   * IdReuse::kFaithful — the stale queue entry aliases onto the new task
//     and strips its live contribution (the preserved bug: utilization
//     collapses to 0). This branch is the "fails on the faithful copy"
//     witness: asserting correct behavior against it would fail.
//   * IdReuse::kCorrected — the entry's add() epoch no longer matches, so
//     it is dropped and the new task's contribution survives, matching the
//     generation-checked slot-map store exactly.
TEST(StoreDifferentialTest, IdReuseAliasingPinned) {
  constexpr std::uint64_t kReusedId = 7;
  constexpr double kOld = 0.10;
  constexpr double kNew = 0.25;
  const std::vector<double> old_c = {kOld, 0.0, 0.0, 0.0, 0.0, 0.0};
  const std::vector<double> new_c = {kNew, 0.0, 0.0, 0.0, 0.0, 0.0};

  const auto drive = [&](auto& tracker) {
    tracker.add(kReusedId, old_c, 100.0);
    tracker.mark_departed(kReusedId, 0);
    tracker.remove_task(kReusedId);
    tracker.add(kReusedId, new_c, 100.0);  // id reuse
    tracker.on_stage_idle(0);
    return tracker.utilization(0);
  };

  sim::Simulator sim_faithful;
  testing::ReferenceUtilizationTracker faithful(
      sim_faithful, kStages,
      testing::ReferenceUtilizationTracker::IdReuse::kFaithful);
  sim::Simulator sim_corrected;
  testing::ReferenceUtilizationTracker corrected(
      sim_corrected, kStages,
      testing::ReferenceUtilizationTracker::IdReuse::kCorrected);
  sim::Simulator sim_store;
  SyntheticUtilizationTracker store(sim_store, kStages);

  // The defect, pinned: the faithful copy strips the NEW task's live
  // contribution via the stale departed-queue entry.
  EXPECT_DOUBLE_EQ(drive(faithful), 0.0);
  EXPECT_TRUE(faithful.is_live(kReusedId));  // record exists, contribution gone

  // The corrected variant and the production slot-map store both keep it.
  EXPECT_DOUBLE_EQ(drive(corrected), kNew);
  EXPECT_DOUBLE_EQ(drive(store), kNew);
  EXPECT_DOUBLE_EQ(corrected.cached_lhs(), store.cached_lhs());

  // Default construction stays faithful (the A/B sweep's baseline must not
  // silently change behavior under it).
  sim::Simulator sim_default;
  testing::ReferenceUtilizationTracker default_mode(sim_default, kStages);
  EXPECT_DOUBLE_EQ(drive(default_mode), 0.0);
}

}  // namespace
}  // namespace frap::core
