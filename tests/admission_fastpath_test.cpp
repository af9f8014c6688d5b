// The incremental allocation-free admission fast path must be
// indistinguishable from the seed full-evaluation path: identical decisions
// over long randomized arrival histories (the PR's acceptance criterion),
// identical boundary-tie behaviour, and a batch path identical to
// sequential admissions. Also exercises the tracker's incremental-LHS
// cross-check and rebuild counters under the same histories.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "support/reference_admitter.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::core {
namespace {

TaskSpec random_task(util::Rng& rng, std::uint64_t id, std::size_t stages) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = rng.uniform(0.5, 3.0);
  spec.stages.resize(stages);
  for (auto& s : spec.stages) {
    // ~half the stages untouched: the sparse shape the fast path optimizes.
    if (rng.bernoulli(0.5)) s.compute = rng.uniform(0.0, 0.12) * spec.deadline;
  }
  return spec;
}

// One harness = simulator + tracker + controller; the A/B test drives two
// of them with identical inputs and compares every decision.
struct Harness {
  explicit Harness(std::size_t stages)
      : tracker(sim, stages),
        controller(sim, tracker, FeasibleRegion::deadline_monotonic(stages)) {}

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker;
  AdmissionController controller;
  frap::testing::ReferenceAdmitter reference{controller};
};

TEST(AdmissionFastPathTest, DecisionsIdenticalToReferenceOver10kArrivals) {
  constexpr std::size_t kStages = 5;
  constexpr int kArrivals = 12000;
  Harness fast(kStages);
  Harness ref(kStages);

  util::Rng rng(20240805);
  std::uint64_t mismatches = 0;
  std::uint64_t admitted = 0;
  for (int i = 1; i <= kArrivals; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const auto spec = random_task(rng, id, kStages);

    // Advance both clocks identically so expiries interleave with arrivals.
    const Time t = fast.sim.now() + rng.exponential(0.02);
    fast.sim.run_until(t);
    ref.sim.run_until(t);

    const auto df = fast.controller.try_admit(spec, fast.sim.now());
    const auto dr = ref.reference.try_admit(spec, ref.sim.now());
    if (df.admitted != dr.admitted) ++mismatches;
    if (df.admitted) ++admitted;
    // The LHS values come from different summation orders but must agree to
    // far better than any admission-relevant resolution.
    if (std::isfinite(df.lhs_with_task) && std::isfinite(dr.lhs_with_task)) {
      EXPECT_NEAR(df.lhs_with_task, dr.lhs_with_task, 1e-9);
    }

    // Occasionally fire the other tracker mutations on BOTH trackers so the
    // incremental cache sees departures, idle resets, and removals too.
    if (df.admitted && rng.bernoulli(0.3)) {
      const auto stage =
          static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
      fast.tracker.mark_departed(id, stage);
      ref.tracker.mark_departed(id, stage);
      fast.tracker.on_stage_idle(stage);
      ref.tracker.on_stage_idle(stage);
    }
    if (df.admitted && rng.bernoulli(0.05)) {
      fast.tracker.remove_task(id);
      ref.tracker.remove_task(id);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The workload must actually exercise both outcomes.
  EXPECT_GT(admitted, 1000u);
  EXPECT_LT(admitted, static_cast<std::uint64_t>(kArrivals));
  EXPECT_EQ(fast.controller.attempts(), ref.reference.attempts());
  EXPECT_EQ(fast.controller.admitted(), ref.reference.admitted());

  // After the whole history the incremental LHS still matches a recompute.
  fast.tracker.verify_lhs_cache(1e-9);
  EXPECT_GE(fast.tracker.lhs_cache_stats().crosschecks, 1u);
  // >= 10k arrivals worth of updates crossed the periodic rebuild interval.
  EXPECT_GE(fast.tracker.lhs_cache_stats().rebuilds, 1u);
  EXPECT_LE(fast.tracker.lhs_cache_stats().max_drift, 1e-9);
}

TEST(AdmissionFastPathTest, ApproximateMeansVariantMatchesReference) {
  constexpr std::size_t kStages = 3;
  Harness fast(kStages);
  Harness ref(kStages);
  const std::vector<Duration> means{0.02, 0.0, 0.03};
  fast.controller.set_approximate_means(means);
  ref.controller.set_approximate_means(means);

  util::Rng rng(99);
  for (int i = 1; i <= 3000; ++i) {
    const auto spec = random_task(rng, static_cast<std::uint64_t>(i), kStages);
    const Time t = fast.sim.now() + rng.exponential(0.01);
    fast.sim.run_until(t);
    ref.sim.run_until(t);
    const auto df = fast.controller.try_admit(spec, fast.sim.now());
    const auto dr = ref.reference.try_admit(spec, ref.sim.now());
    EXPECT_EQ(df.admitted, dr.admitted) << "arrival " << i;
  }
  EXPECT_EQ(fast.controller.attempts(), ref.reference.attempts());
  EXPECT_EQ(fast.controller.admitted(), ref.reference.admitted());
  fast.tracker.verify_lhs_cache(1e-9);
}

// Every field of every burst decision must equal the sequential fast
// path's, bit for bit: exact and approximate-means admission, unit and
// non-unit tracker view scale, and bursts that carry stage-saturating tasks.
void ExpectBurstMatchesSequential(bool approximate, double view_scale) {
  constexpr std::size_t kStages = 4;
  Harness seq(kStages);
  Harness bat(kStages);
  for (Harness* h : {&seq, &bat}) {
    h->tracker.set_view_scale(view_scale);
    if (approximate) {
      h->controller.set_approximate_means({0.03, 0.0, 0.05, 0.02});
    }
  }
  BatchAdmissionController batch(bat.controller);

  util::Rng rng(7);
  std::uint64_t id = 1;
  std::uint64_t saturated = 0;
  for (int burst = 0; burst < 200; ++burst) {
    std::vector<TaskSpec> specs;
    const int size = rng.uniform_int(1, 32);
    for (int i = 0; i < size; ++i) {
      specs.push_back(random_task(rng, id++, kStages));
      // Now and then a task with a deadline so short that one stage's
      // demand (actual or mean) alone exceeds it.
      if (rng.bernoulli(0.03)) {
        TaskSpec& s = specs.back();
        s.deadline = 0.04;
        const auto j =
            static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
        s.stages[j].compute = 1.5 * s.deadline;
      }
    }
    const Time t = seq.sim.now() + rng.exponential(0.05);
    seq.sim.run_until(t);
    bat.sim.run_until(t);

    const auto& decisions = batch.try_admit_burst(specs);
    ASSERT_EQ(decisions.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto d = seq.controller.try_admit(specs[i], seq.sim.now());
      const auto& b = decisions[i];
      SCOPED_TRACE(::testing::Message() << "burst " << burst << " index " << i);
      EXPECT_EQ(b.admitted, d.admitted);
      EXPECT_EQ(b.reason, d.reason);
      EXPECT_EQ(b.lhs_before, d.lhs_before);
      EXPECT_EQ(b.lhs_with_task, d.lhs_with_task);
      EXPECT_EQ(b.bound, d.bound);
      EXPECT_EQ(b.arrival, d.arrival);
      EXPECT_EQ(b.decided_at, d.decided_at);
      if (d.reason == AdmissionDecision::Reason::kStageSaturated) ++saturated;
    }
  }
  EXPECT_EQ(batch.bursts(), 200u);
  EXPECT_EQ(bat.controller.attempts(), seq.controller.attempts());
  EXPECT_EQ(bat.controller.admitted(), seq.controller.admitted());
  EXPECT_GT(bat.controller.admitted(), 0u);
  EXPECT_LT(bat.controller.admitted(), bat.controller.attempts());
  EXPECT_GT(saturated, 0u);
  bat.tracker.verify_lhs_cache(1e-9);
}

TEST(AdmissionFastPathTest, BatchDecisionsMatchSequentialFastPath) {
  for (const bool approximate : {false, true}) {
    for (const double view_scale : {1.0, 2.5}) {
      SCOPED_TRACE(::testing::Message() << "approximate=" << approximate
                                        << " view_scale=" << view_scale);
      ExpectBurstMatchesSequential(approximate, view_scale);
    }
  }
}

TEST(AdmissionFastPathTest, RejectionsLeaveNoTrace) {
  Harness h(2);
  TaskSpec big;
  big.id = 1;
  big.deadline = 1.0;
  big.stages.resize(2);
  big.stages[0].compute = 0.5;
  big.stages[1].compute = 0.5;
  const auto d = h.controller.try_admit(big, h.sim.now());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(h.tracker.live_tasks(), 0u);
  EXPECT_DOUBLE_EQ(h.tracker.cached_lhs(), 0.0);
  h.tracker.verify_lhs_cache(1e-12);
}

// A task saturating one stage (U_j >= 1) must be rejected with an infinite
// tested LHS, exactly like the reference path.
TEST(AdmissionFastPathTest, SaturatingTaskRejectedWithInfiniteLhs) {
  Harness fast(2);
  Harness ref(2);
  TaskSpec sat;
  sat.id = 1;
  sat.deadline = 1.0;
  sat.stages.resize(2);
  sat.stages[0].compute = 2.0;
  const auto df = fast.controller.try_admit(sat, fast.sim.now());
  const auto dr = ref.reference.try_admit(sat, ref.sim.now());
  EXPECT_FALSE(df.admitted);
  EXPECT_FALSE(dr.admitted);
  EXPECT_TRUE(std::isinf(df.lhs_with_task));
  EXPECT_TRUE(std::isinf(dr.lhs_with_task));
}

// ----------------------------------------------------- boundary ties -----

// Construct an exact floating-point tie: with a single stage and
// alpha = f(u), the region bound IS the tested LHS bit-for-bit. A tie is
// inside the region (<=), and test(), try_admit() and the reference path
// must all agree on it — they share one predicate.
TEST(AdmissionFastPathTest, BoundaryTieIsAdmittedConsistently) {
  const double u = 0.3;
  const double alpha = stage_delay_factor(u);  // bound == f(u) exactly

  TaskSpec spec;
  spec.id = 1;
  spec.deadline = 1.0;
  spec.stages.resize(1);
  spec.stages[0].compute = u;  // contribution exactly u

  {
    sim::Simulator sim;
    SyntheticUtilizationTracker tracker(sim, 1);
    AdmissionController c(sim, tracker, FeasibleRegion::with_alpha(1, alpha));
    EXPECT_TRUE(c.region().admits(alpha));
    EXPECT_TRUE(c.test(spec));
    const auto d = c.try_admit(spec, sim.now());
    EXPECT_TRUE(d.admitted);
    EXPECT_DOUBLE_EQ(d.lhs_with_task, c.region().bound());
  }
  {
    sim::Simulator sim;
    SyntheticUtilizationTracker tracker(sim, 1);
    AdmissionController c(sim, tracker, FeasibleRegion::with_alpha(1, alpha));
    frap::testing::ReferenceAdmitter reference(c);
    const auto d = reference.try_admit(spec, sim.now());
    EXPECT_TRUE(d.admitted);
  }
}

// Just past the tie, every path must reject.
TEST(AdmissionFastPathTest, JustPastBoundaryRejectedConsistently) {
  const double u = 0.3;
  const double alpha = stage_delay_factor(u);
  TaskSpec spec;
  spec.id = 1;
  spec.deadline = 1.0;
  spec.stages.resize(1);
  spec.stages[0].compute = std::nextafter(u, 1.0) + 1e-12;

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker(sim, 1);
  AdmissionController c(sim, tracker, FeasibleRegion::with_alpha(1, alpha));
  EXPECT_FALSE(c.test(spec));
  EXPECT_FALSE(c.try_admit(spec, sim.now()).admitted);
}

}  // namespace
}  // namespace frap::core
