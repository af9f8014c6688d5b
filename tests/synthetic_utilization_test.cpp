#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/synthetic_utilization.h"
#include "sim/simulator.h"

namespace frap::core {
namespace {

class TrackerTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(TrackerTest, StartsAtZero) {
  SyntheticUtilizationTracker t(sim_, 3);
  EXPECT_EQ(t.num_stages(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(t.utilization(j), 0.0);
  }
  EXPECT_EQ(t.live_tasks(), 0u);
}

TEST_F(TrackerTest, AddRaisesUtilization) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.add(1, std::vector<double>{0.2, 0.3}, 10.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.2);
  EXPECT_DOUBLE_EQ(t.utilization(1), 0.3);
  EXPECT_TRUE(t.is_live(1));
}

TEST_F(TrackerTest, ContributionsAccumulate) {
  SyntheticUtilizationTracker t(sim_, 1);
  t.add(1, std::vector<double>{0.2}, 10.0);
  t.add(2, std::vector<double>{0.25}, 10.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.45);
  EXPECT_EQ(t.live_tasks(), 2u);
}

TEST_F(TrackerTest, ExpiryRemovesContributionAtDeadline) {
  SyntheticUtilizationTracker t(sim_, 1);
  t.add(1, std::vector<double>{0.5}, 4.0);
  sim_.run_until(3.999);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.5);
  sim_.run_until(4.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
  EXPECT_FALSE(t.is_live(1));
}

TEST_F(TrackerTest, IdleResetRemovesOnlyDepartedTasks) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.add(1, std::vector<double>{0.2, 0.2}, 100.0);
  t.add(2, std::vector<double>{0.3, 0.3}, 100.0);
  t.mark_departed(1, 0);  // task 1 finished stage 0 only
  t.on_stage_idle(0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.3);  // task 2 remains
  EXPECT_DOUBLE_EQ(t.utilization(1), 0.5);  // stage 1 untouched
}

TEST_F(TrackerTest, IdleResetDisabledKeepsContributions) {
  SyntheticUtilizationTracker t(sim_, 1);
  t.set_idle_reset_enabled(false);
  t.add(1, std::vector<double>{0.4}, 100.0);
  t.mark_departed(1, 0);
  t.on_stage_idle(0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.4);
}

TEST_F(TrackerTest, IdleResetThenExpiryDoesNotDoubleSubtract) {
  SyntheticUtilizationTracker t(sim_, 1);
  t.add(1, std::vector<double>{0.4}, 5.0);
  t.add(2, std::vector<double>{0.1}, 100.0);
  t.mark_departed(1, 0);
  t.on_stage_idle(0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.1);
  sim_.run_until(6.0);  // task 1's expiry fires: must be a no-op now
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.1);
}

TEST_F(TrackerTest, ReservationActsAsFloor) {
  SyntheticUtilizationTracker t(sim_, 3);
  t.set_reservation(0, 0.4);
  t.set_reservation(1, 0.25);
  t.set_reservation(2, 0.1);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.4);
  t.add(1, std::vector<double>{0.1, 0.0, 0.0}, 10.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.5);
  sim_.run_until(10.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.4);  // never below the floor
  EXPECT_DOUBLE_EQ(t.reservation(0), 0.4);
}

TEST_F(TrackerTest, RemoveTaskStripsEverywhere) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.add(1, std::vector<double>{0.2, 0.3}, 10.0);
  t.remove_task(1);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
  EXPECT_DOUBLE_EQ(t.utilization(1), 0.0);
  EXPECT_FALSE(t.is_live(1));
  t.remove_task(42);  // unknown id: no-op
}

TEST_F(TrackerTest, OnDecreaseFiresOnExpiry) {
  SyntheticUtilizationTracker t(sim_, 1);
  int decreases = 0;
  t.set_on_decrease([&] { ++decreases; });
  t.add(1, std::vector<double>{0.3}, 2.0);
  EXPECT_EQ(decreases, 0);
  sim_.run_until(2.0);
  EXPECT_EQ(decreases, 1);
}

TEST_F(TrackerTest, OnDecreaseFiresOnIdleResetOnlyWhenSomethingRemoved) {
  SyntheticUtilizationTracker t(sim_, 1);
  int decreases = 0;
  t.set_on_decrease([&] { ++decreases; });
  t.on_stage_idle(0);  // nothing departed: no event
  EXPECT_EQ(decreases, 0);
  t.add(1, std::vector<double>{0.3}, 100.0);
  t.mark_departed(1, 0);
  t.on_stage_idle(0);
  EXPECT_EQ(decreases, 1);
  t.on_stage_idle(0);  // queue drained: no second event
  EXPECT_EQ(decreases, 1);
}

TEST_F(TrackerTest, ZeroContributionStagesAreAllowed) {
  SyntheticUtilizationTracker t(sim_, 3);
  t.add(1, std::vector<double>{0.0, 0.5, 0.0}, 10.0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
  EXPECT_DOUBLE_EQ(t.utilization(1), 0.5);
}

TEST_F(TrackerTest, UtilizationsSnapshot) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.set_reservation(1, 0.1);
  t.add(1, std::vector<double>{0.2, 0.3}, 10.0);
  const auto u = t.utilizations();
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 0.2);
  EXPECT_DOUBLE_EQ(u[1], 0.4);
}

TEST_F(TrackerTest, ManyAddRemoveCyclesStayNonNegative) {
  SyntheticUtilizationTracker t(sim_, 1);
  for (int i = 0; i < 10000; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    t.add(id, std::vector<double>{0.1 + (i % 7) * 0.01},
          sim_.now() + 1.0);
    t.mark_departed(id, 0);
    t.on_stage_idle(0);
    EXPECT_GE(t.utilization(0), 0.0);
  }
  EXPECT_NEAR(t.utilization(0), 0.0, 1e-9);
}

TEST_F(TrackerTest, DepartedMarkOnUnknownTaskIsSafe) {
  SyntheticUtilizationTracker t(sim_, 1);
  t.mark_departed(999, 0);
  t.on_stage_idle(0);
  EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
}

// -------------------------------------------- incremental LHS cache -----

double recomputed_lhs(const SyntheticUtilizationTracker& t) {
  double sum = 0;
  for (std::size_t j = 0; j < t.num_stages(); ++j) {
    const double u = t.utilization(j);
    if (u >= 1.0) return std::numeric_limits<double>::infinity();
    // frap-lint: allow(unsafe-division) -- the test recomputes f(U) by hand,
    // independent of stage_delay_factor, to cross-check the cached LHS.
    sum += u * (1.0 - u / 2.0) / (1.0 - u);
  }
  return sum;
}

TEST_F(TrackerTest, CachedLhsTracksEveryMutation) {
  SyntheticUtilizationTracker t(sim_, 3);
  EXPECT_DOUBLE_EQ(t.cached_lhs(), 0.0);

  t.set_reservation(2, 0.1);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);

  t.add(1, std::vector<double>{0.2, 0.0, 0.15}, 5.0);
  t.add(2, std::vector<double>{0.0, 0.3, 0.05}, 100.0);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);
  for (std::size_t j = 0; j < 3; ++j) {
    const double u = t.utilization(j);
    // frap-lint: allow(unsafe-division) -- same hand-derived cross-check.
    EXPECT_NEAR(t.stage_lhs_term(j), u * (1.0 - u / 2.0) / (1.0 - u), 1e-12);
  }

  // Idle reset.
  t.mark_departed(2, 1);
  t.on_stage_idle(1);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);

  // Expiry.
  sim_.run_until(5.0);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);

  // Removal.
  t.remove_task(2);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);
  EXPECT_NEAR(t.cached_lhs(), 0.1 * 0.95 / 0.9, 1e-12);  // floor remains

  t.verify_lhs_cache(1e-12);
  EXPECT_GE(t.lhs_cache_stats().crosschecks, 1u);
}

TEST_F(TrackerTest, CachedLhsSaturationRoundTrip) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.add(1, std::vector<double>{0.3, 0.0}, 100.0);
  const double before = t.cached_lhs();
  EXPECT_TRUE(std::isfinite(before));

  // Saturate stage 1: the cached LHS must report +infinity...
  t.add(2, std::vector<double>{0.0, 1.5}, 100.0);
  EXPECT_TRUE(std::isinf(t.cached_lhs()));
  EXPECT_TRUE(std::isinf(t.stage_lhs_term(1)));
  t.verify_lhs_cache();

  // ...and recover the exact finite sum once the saturating task leaves
  // (no inf - inf NaN poisoning the running sum).
  t.remove_task(2);
  EXPECT_DOUBLE_EQ(t.cached_lhs(), before);
  t.verify_lhs_cache(1e-12);
}

TEST_F(TrackerTest, PeriodicRebuildBoundsDrift) {
  SyntheticUtilizationTracker t(sim_, 1);
  // Enough single-stage updates to cross the rebuild interval several times.
  const int cycles =
      static_cast<int>(SyntheticUtilizationTracker::kLhsRebuildInterval);
  for (int i = 0; i < cycles; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    t.add(id, std::vector<double>{0.1 + (i % 7) * 0.01}, sim_.now() + 1.0);
    t.remove_task(id);
  }
  EXPECT_GE(t.lhs_cache_stats().rebuilds, 1u);
  EXPECT_NEAR(t.cached_lhs(), 0.0, 1e-9);
  t.verify_lhs_cache(1e-9);
  EXPECT_LE(t.lhs_cache_stats().max_drift, 1e-9);
}

TEST_F(TrackerTest, ExplicitRebuildReturnsCachedLhs) {
  SyntheticUtilizationTracker t(sim_, 2);
  t.add(1, std::vector<double>{0.25, 0.1}, 100.0);
  const double cached = t.cached_lhs();
  EXPECT_DOUBLE_EQ(t.rebuild_lhs_cache(), cached);
  EXPECT_DOUBLE_EQ(t.cached_lhs(), cached);
}

TEST_F(TrackerTest, ViewScaleScalesLoadButNotStorageOrFloor) {
  SyntheticUtilizationTracker t(sim_, 2);
  int decreases = 0;
  t.set_on_decrease([&] { ++decreases; });
  t.set_reservation(1, 0.1);
  t.add(1, std::vector<double>{0.1, 0.05}, 100.0);
  EXPECT_EQ(t.view_scale(), 1.0);

  t.set_view_scale(4.0);
  EXPECT_EQ(decreases, 0);  // a rising scale only adds load
  EXPECT_EQ(t.unscaled_load(0), 0.1);
  EXPECT_EQ(t.utilization(0), 0.1 * 4.0);
  EXPECT_EQ(t.utilization(1), 0.1 + 0.05 * 4.0);  // the floor is not scaled
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);

  // Contributions added under the scale are stored as given.
  t.add(2, std::vector<double>{0.02, 0.0}, 100.0);
  EXPECT_EQ(t.unscaled_load(0), 0.1 + 0.02);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);

  t.set_view_scale(2.0);
  EXPECT_EQ(decreases, 1);
  EXPECT_EQ(t.utilization(0), (0.1 + 0.02) * 2.0);
  EXPECT_NEAR(t.cached_lhs(), recomputed_lhs(t), 1e-12);
  t.verify_lhs_cache(1e-12);

  // Expiry strips the stored (unscaled) value: the load returns to zero.
  sim_.run_until(100.0);
  EXPECT_NEAR(t.unscaled_load(0), 0.0, 1e-15);
  EXPECT_EQ(t.utilization(1), 0.1);
}

}  // namespace
}  // namespace frap::core
