#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/admission.h"
#include "core/baselines.h"
#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "sim/simulator.h"

namespace frap::core {
namespace {

TaskSpec make_task(std::uint64_t id, Duration deadline,
                   std::vector<Duration> computes, double importance = 0) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = deadline;
  spec.importance = importance;
  for (Duration c : computes) {
    StageDemand d;
    d.compute = c;
    spec.stages.push_back(d);
  }
  return spec;
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : tracker_(sim_, 2),
        controller_(sim_, tracker_, FeasibleRegion::deadline_monotonic(2)) {}

  sim::Simulator sim_;
  SyntheticUtilizationTracker tracker_;
  AdmissionController controller_;
};

TEST_F(AdmissionTest, AdmitsTaskInsideRegion) {
  // Contribution (0.1, 0.1): f(0.1)*2 ~= 0.211 < 1.
  const auto d = controller_.try_admit(make_task(1, 1.0, {0.1, 0.1}),
                                       sim_.now());
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, AdmissionDecision::Reason::kAdmitted);
  EXPECT_DOUBLE_EQ(d.lhs_before, 0.0);
  EXPECT_NEAR(d.lhs_with_task, 2 * stage_delay_factor(0.1), 1e-12);
  EXPECT_DOUBLE_EQ(d.bound, controller_.region().bound());
  EXPECT_DOUBLE_EQ(d.arrival, 0.0);
  EXPECT_DOUBLE_EQ(d.decided_at, 0.0);
  EXPECT_DOUBLE_EQ(tracker_.utilization(0), 0.1);
}

TEST_F(AdmissionTest, RejectsTaskOutsideRegion) {
  // A single task at (0.5, 0.5): f(0.5)*2 = 1.5 > 1.
  const auto d = controller_.try_admit(make_task(1, 1.0, {0.5, 0.5}),
                                       sim_.now());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, AdmissionDecision::Reason::kRegionFull);
  // Rejection leaves the tracker untouched.
  EXPECT_DOUBLE_EQ(tracker_.utilization(0), 0.0);
  EXPECT_EQ(tracker_.live_tasks(), 0u);
}

TEST_F(AdmissionTest, SaturatingTaskReportsStageSaturated) {
  // Contribution 1.5 on stage 0: U_0 would cross 1, not merely the bound.
  const auto d = controller_.try_admit(make_task(1, 1.0, {1.5, 0.0}),
                                       sim_.now());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, AdmissionDecision::Reason::kStageSaturated);
  EXPECT_TRUE(std::isinf(d.lhs_with_task));
}

TEST_F(AdmissionTest, AdmitsUpToTheBalancedCap) {
  // Tasks of contribution 0.05 per stage; balanced cap for N=2 is ~0.382,
  // so exactly 7 fit (0.35) and the 8th (0.40 > 0.382) is rejected.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    const auto d = controller_.try_admit(
        make_task(static_cast<std::uint64_t>(i + 1), 1.0, {0.05, 0.05}),
        sim_.now());
    if (d.admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 7);
  EXPECT_NEAR(tracker_.utilization(0), 0.35, 1e-9);
}

TEST_F(AdmissionTest, ExpiryFreesCapacity) {
  EXPECT_TRUE(controller_.try_admit(make_task(1, 1.0, {0.3, 0.3}),
                                    sim_.now()).admitted);
  EXPECT_FALSE(controller_.try_admit(make_task(2, 1.0, {0.3, 0.3}),
                                     sim_.now()).admitted);
  sim_.run_until(1.0);  // task 1 expires
  EXPECT_TRUE(controller_.try_admit(make_task(3, 1.0, {0.3, 0.3}),
                                    sim_.now()).admitted);
}

TEST_F(AdmissionTest, CountsAttemptsAndAcceptanceRatio) {
  (void)controller_.try_admit(make_task(1, 1.0, {0.3, 0.3}), sim_.now());  // in
  (void)controller_.try_admit(make_task(2, 1.0, {0.3, 0.3}),
                              sim_.now());  // out
  EXPECT_EQ(controller_.attempts(), 2u);
  EXPECT_EQ(controller_.admitted(), 1u);
  EXPECT_DOUBLE_EQ(controller_.acceptance_ratio(), 0.5);
}

TEST_F(AdmissionTest, TestDoesNotMutate) {
  EXPECT_TRUE(controller_.test(make_task(1, 1.0, {0.1, 0.1})));
  EXPECT_EQ(tracker_.live_tasks(), 0u);
  EXPECT_EQ(controller_.attempts(), 0u);
}

TEST_F(AdmissionTest, ApproximateModeUsesMeans) {
  controller_.set_approximate_means({0.2, 0.2});
  EXPECT_TRUE(controller_.approximate());
  // Actual computes are huge, but means say (0.2, 0.2)/D -> admitted.
  const auto d = controller_.try_admit(make_task(1, 1.0, {0.9, 0.9}),
                                       sim_.now());
  EXPECT_TRUE(d.admitted);
  // Tracker holds the approximate contribution.
  EXPECT_DOUBLE_EQ(tracker_.utilization(0), 0.2);
}

TEST_F(AdmissionTest, ExplicitArrivalAnchorsDeadline) {
  sim_.at(5.0, [&] {
    // Task arrived at t=3 (deadline anchor), decided at t=5: it expires at
    // arrival + deadline = 7.
    const auto d = controller_.try_admit(make_task(1, 4.0, {0.1, 0.1}), 3.0);
    EXPECT_TRUE(d.admitted);
    EXPECT_DOUBLE_EQ(d.arrival, 3.0);
    EXPECT_DOUBLE_EQ(d.decided_at, 5.0);
  });
  sim_.run_until(6.9);
  EXPECT_TRUE(tracker_.is_live(1));
  sim_.run_until(7.0);
  EXPECT_FALSE(tracker_.is_live(1));
}

TEST_F(AdmissionTest, BlockingRegionIsStricter) {
  SyntheticUtilizationTracker tracker2(sim_, 2);
  AdmissionController blocked(
      sim_, tracker2,
      FeasibleRegion::with_blocking(1.0, std::vector<double>{0.2, 0.2}));
  // Bound is 0.6: the (0.3, 0.3) task (lhs ~0.729) fails, but passes the
  // unblocked controller (bound 1).
  auto spec = make_task(1, 1.0, {0.3, 0.3});
  EXPECT_TRUE(controller_.try_admit(spec, sim_.now()).admitted);
  EXPECT_FALSE(blocked.try_admit(spec, sim_.now()).admitted);
}

// ----------------------------------------------------------- waiting -----

class WaitingTest : public AdmissionTest {};

TEST_F(WaitingTest, AdmitsImmediatelyWhenItFits) {
  WaitingAdmissionController waiting(sim_, controller_, 0.2);
  waiting.attach();
  std::vector<std::pair<std::uint64_t, bool>> decisions;
  waiting.set_decision_callback(
      [&](const TaskSpec& s, const AdmissionDecision& d) {
        decisions.push_back({s.id, d.admitted});
      });
  waiting.submit(make_task(1, 1.0, {0.1, 0.1}));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].second);
  EXPECT_EQ(waiting.pending(), 0u);
}

TEST_F(WaitingTest, WaitsForCapacityThenAdmits) {
  WaitingAdmissionController waiting(sim_, controller_, 0.5);
  waiting.attach();
  std::vector<std::pair<bool, Time>> decisions;
  waiting.set_decision_callback(
      [&](const TaskSpec&, const AdmissionDecision& d) {
        decisions.push_back({d.admitted, d.decided_at});
      });

  // Fill the region with a task expiring at t=0.3.
  sim_.at(0.0, [&] {
    (void)controller_.try_admit(make_task(1, 0.3, {0.09, 0.09}),
                                0.0);  // u=(0.3,0.3)
    waiting.submit(make_task(2, 1.0, {0.3, 0.3}));  // does not fit yet
    EXPECT_EQ(waiting.pending(), 1u);
  });
  sim_.run();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].first);
  EXPECT_DOUBLE_EQ(decisions[0].second, 0.3);  // admitted at the expiry
}

TEST_F(WaitingTest, TimesOutWhenNothingFrees) {
  WaitingAdmissionController waiting(sim_, controller_, 0.2);
  waiting.attach();
  std::vector<AdmissionDecision> decisions;
  waiting.set_decision_callback(
      [&](const TaskSpec&, const AdmissionDecision& d) {
        decisions.push_back(d);
      });
  sim_.at(0.0, [&] {
    (void)controller_.try_admit(make_task(1, 10.0, {3.0, 3.0}), 0.0);
    waiting.submit(make_task(2, 1.0, {0.3, 0.3}));
  });
  sim_.run_until(0.3);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].admitted);
  EXPECT_EQ(decisions[0].reason, AdmissionDecision::Reason::kTimedOut);
  EXPECT_DOUBLE_EQ(decisions[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(decisions[0].decided_at, 0.2);  // patience exhausted
  EXPECT_EQ(waiting.timed_out(), 1u);
  EXPECT_EQ(waiting.pending(), 0u);
}

TEST_F(WaitingTest, FifoOrderPreserved) {
  WaitingAdmissionController waiting(sim_, controller_, 5.0);
  waiting.attach();
  std::vector<std::uint64_t> admitted_order;
  waiting.set_decision_callback(
      [&](const TaskSpec& s, const AdmissionDecision& d) {
        if (d.admitted) admitted_order.push_back(s.id);
      });
  sim_.at(0.0, [&] {
    (void)controller_.try_admit(make_task(1, 1.0, {0.35, 0.35}), 0.0);
    waiting.submit(make_task(2, 2.0, {0.6, 0.6}));
    waiting.submit(make_task(3, 2.0, {0.02, 0.02}));
    // Task 3 would fit right now, but FIFO holds it behind task 2.
    EXPECT_EQ(waiting.pending(), 2u);
  });
  sim_.run();
  ASSERT_EQ(admitted_order.size(), 2u);
  EXPECT_EQ(admitted_order[0], 2u);
  EXPECT_EQ(admitted_order[1], 3u);
}

TEST_F(WaitingTest, ZeroPatienceDecidesSynchronously) {
  WaitingAdmissionController waiting(sim_, controller_, 0.0);
  waiting.attach();
  std::vector<AdmissionDecision> decisions;
  waiting.set_decision_callback(
      [&](const TaskSpec&, const AdmissionDecision& d) {
        decisions.push_back(d);
      });
  (void)controller_.try_admit(make_task(1, 10.0, {3.0, 3.0}), 0.0);
  waiting.submit(make_task(2, 1.0, {0.3, 0.3}));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].admitted);
  EXPECT_EQ(decisions[0].reason, AdmissionDecision::Reason::kTimedOut);
  EXPECT_EQ(waiting.pending(), 0u);
}

// Reentrancy regression: a utilization decrease fired from inside a decision
// callback (here: admitting B sheds an unrelated blocker) arrives while the
// retry scan is still running. The scan must be re-armed so the capacity
// freed mid-scan reaches every queued task; second-in-line C only fits
// because of that cascade and must not be stranded.
TEST_F(WaitingTest, DecreaseDuringRetryRearmsAndAdmitsCascade) {
  WaitingAdmissionController waiting(sim_, controller_, 2.0);
  waiting.attach();
  std::vector<std::pair<std::uint64_t, Time>> admitted;
  waiting.set_decision_callback(
      [&](const TaskSpec& s, const AdmissionDecision& d) {
        ASSERT_TRUE(d.admitted) << "task " << s.id;
        admitted.push_back({s.id, d.decided_at});
        // Admitting B frees more capacity: drop blocker Y. This decrease
        // fires while retry() is mid-scan.
        if (s.id == 1) tracker_.remove_task(11);
      });

  sim_.at(0.0, [&] {
    // Blocker X: u += 0.2/stage, expires at t=1 (triggers the retry).
    EXPECT_TRUE(controller_.try_admit(make_task(10, 1.0, {0.2, 0.2}),
                                      sim_.now()).admitted);
    // Blocker Y: u += 0.15/stage, held until removed in the callback.
    EXPECT_TRUE(
        controller_.try_admit(make_task(11, 10.0, {1.5, 1.5}),
                              sim_.now()).admitted);
    // B (u 0.2/stage) only fits once X expires; C (u 0.15/stage) only fits
    // once Y is ALSO gone — i.e. only via the decrease raised inside B's
    // decision callback.
    waiting.submit(make_task(1, 5.0, {1.0, 1.0}));
    waiting.submit(make_task(2, 5.0, {0.75, 0.75}));
    EXPECT_EQ(waiting.pending(), 2u);
  });
  sim_.run_until(2.0);

  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].first, 1u);
  EXPECT_EQ(admitted[1].first, 2u);
  // Both admitted at the expiry instant — C in the same (re-armed) scan.
  EXPECT_DOUBLE_EQ(admitted[0].second, 1.0);
  EXPECT_DOUBLE_EQ(admitted[1].second, 1.0);
  EXPECT_EQ(waiting.pending(), 0u);
  EXPECT_EQ(waiting.timed_out(), 0u);
  EXPECT_GE(waiting.rearmed_retries(), 1u);
}

// A timed-out front waiter must promote the next waiter AND retest it at
// once: the second waiter queued behind the front without a test, and no
// decrease follows the timeout, so without the retest an admissible task
// would wait out its own patience.
TEST_F(WaitingTest, TimeoutPromotesAndRetestsNextWaiter) {
  WaitingAdmissionController waiting(sim_, controller_, 2.0);
  waiting.attach();
  std::vector<std::pair<std::uint64_t, AdmissionDecision>> decisions;
  waiting.set_decision_callback(
      [&](const TaskSpec& s, const AdmissionDecision& d) {
        decisions.emplace_back(s.id, d);
      });

  sim_.at(0.0, [&] {
    // Blocker: u = 0.35 per stage, live past the end of the test.
    ASSERT_TRUE(
        controller_.try_admit(make_task(10, 10.0, {3.5, 3.5}), sim_.now())
            .admitted);
    waiting.submit(make_task(1, 10.0, {0.5, 0.5}));  // +0.05: parked
  });
  sim_.at(1.0, [&] {
    waiting.submit(make_task(2, 10.0, {0.1, 0.1}));  // +0.01: would fit
    EXPECT_EQ(waiting.pending(), 2u);  // queued FIFO behind the front
  });
  sim_.run_until(4.0);

  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].first, 1u);
  EXPECT_EQ(decisions[0].second.reason, AdmissionDecision::Reason::kTimedOut);
  EXPECT_DOUBLE_EQ(decisions[0].second.decided_at, 2.0);
  // Promotion retested the second waiter at the timeout instant.
  EXPECT_EQ(decisions[1].first, 2u);
  EXPECT_TRUE(decisions[1].second.admitted);
  EXPECT_DOUBLE_EQ(decisions[1].second.arrival, 1.0);
  EXPECT_DOUBLE_EQ(decisions[1].second.decided_at, 2.0);
  EXPECT_EQ(waiting.pending(), 0u);
  EXPECT_EQ(waiting.timed_out(), 1u);
}

// ---------------------------------------------------------- shedding -----

class SheddingTest : public AdmissionTest {};

TEST_F(SheddingTest, ShedsLessImportantVictims) {
  std::vector<std::uint64_t> shed;
  SheddingAdmissionController shedder(
      controller_, [&](std::uint64_t id) { shed.push_back(id); });

  // Fill with low-importance tasks.
  EXPECT_TRUE(shedder.try_admit(make_task(1, 1.0, {0.15, 0.15}, 1.0),
                                sim_.now()).admitted);
  EXPECT_TRUE(shedder.try_admit(make_task(2, 1.0, {0.15, 0.15}, 1.0),
                                sim_.now()).admitted);
  // Important arrival needs room: shed id 1 (first at lowest importance).
  const auto d = shedder.try_admit(make_task(3, 1.0, {0.2, 0.2}, 9.0),
                                   sim_.now());
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.reason, AdmissionDecision::Reason::kShed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1u);
  EXPECT_EQ(shedder.tasks_shed(), 1u);
}

TEST_F(SheddingTest, NeverShedsEquallyOrMoreImportant) {
  std::vector<std::uint64_t> shed;
  SheddingAdmissionController shedder(
      controller_, [&](std::uint64_t id) { shed.push_back(id); });
  EXPECT_TRUE(shedder.try_admit(make_task(1, 1.0, {0.3, 0.3}, 5.0),
                                sim_.now()).admitted);
  // Equal importance: must NOT shed task 1.
  const auto d = shedder.try_admit(make_task(2, 1.0, {0.3, 0.3}, 5.0),
                                   sim_.now());
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(shed.empty());
}

TEST_F(SheddingTest, ShedsMultipleUntilItFits) {
  std::vector<std::uint64_t> shed;
  SheddingAdmissionController shedder(
      controller_, [&](std::uint64_t id) { shed.push_back(id); });
  EXPECT_TRUE(shedder.try_admit(make_task(1, 1.0, {0.12, 0.12}, 1.0),
                                sim_.now()).admitted);
  EXPECT_TRUE(shedder.try_admit(make_task(2, 1.0, {0.12, 0.12}, 2.0),
                                sim_.now()).admitted);
  EXPECT_TRUE(shedder.try_admit(make_task(3, 1.0, {0.12, 0.12}, 3.0),
                                sim_.now()).admitted);
  // Needs most of the region: sheds 1 then 2 (in importance order).
  const auto d = shedder.try_admit(make_task(4, 1.0, {0.2, 0.2}, 9.0),
                                   sim_.now());
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(shed, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(SheddingTest, ExpiredVictimsAreSkipped) {
  std::vector<std::uint64_t> shed;
  SheddingAdmissionController shedder(
      controller_, [&](std::uint64_t id) { shed.push_back(id); });
  sim_.at(0.0, [&] {
    (void)shedder.try_admit(make_task(1, 0.5, {0.1, 0.1}, 1.0), sim_.now());
  });
  sim_.run_until(2.0);  // task 1 long expired
  (void)shedder.try_admit(make_task(2, 1.0, {0.3, 0.3}, 1.5), sim_.now());
  // No shedding happened (nothing live to shed, and task 2 fits anyway).
  EXPECT_TRUE(shed.empty());
}

// Tasks that expire without ever being scanned by a shed pass must not pile
// up in the importance index: 10k admit/expire cycles at one importance
// keep it within 2 * live + 64 entries.
TEST_F(SheddingTest, ImportanceIndexStaysBoundedAcrossExpiries) {
  SheddingAdmissionController shedder(controller_, [](std::uint64_t) {});
  for (std::uint64_t id = 1; id <= 10'000; ++id) {
    ASSERT_TRUE(shedder.try_admit(make_task(id, 0.5, {0.1, 0.1}, 1.0),
                                  sim_.now())
                    .admitted);
    ASSERT_LE(shedder.importance_index_size(),
              2 * tracker_.live_tasks() + 64)
        << "after admitting task " << id;
    sim_.run_until(sim_.now() + 1.0);  // the task expires
  }
  EXPECT_EQ(tracker_.live_tasks(), 0u);
  EXPECT_EQ(shedder.tasks_shed(), 0u);
}

// -------------------------------------------------------- deadline-split ---

TEST(DeadlineSplitTest, MoreConservativeThanEndToEndRegion) {
  sim::Simulator sim;
  SyntheticUtilizationTracker t_region(sim, 2);
  SyntheticUtilizationTracker t_split(sim, 2);
  AdmissionController region(sim, t_region,
                             FeasibleRegion::deadline_monotonic(2));
  DeadlineSplitAdmissionController split(sim, t_split);

  // Identical arrival stream; count admissions of each.
  int admitted_region = 0;
  int admitted_split = 0;
  for (int i = 0; i < 40; ++i) {
    auto spec = make_task(static_cast<std::uint64_t>(i + 1), 1.0,
                          {0.02, 0.02});
    spec.id = static_cast<std::uint64_t>(i + 1);
    if (region.try_admit(spec, sim.now()).admitted) ++admitted_region;
    auto spec2 = spec;
    spec2.id += 1000;
    if (split.try_admit(spec2, sim.now()).admitted) ++admitted_split;
  }
  EXPECT_GT(admitted_region, admitted_split);
  // Analytical check: split caps per-stage at 0.586/N = 0.293 -> 14 tasks
  // of 0.02; region caps at 0.382 -> 19 tasks.
  EXPECT_EQ(admitted_split, 14);
  EXPECT_EQ(admitted_region, 19);
}

}  // namespace
}  // namespace frap::core
