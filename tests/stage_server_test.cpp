// Hand-checkable timelines for the preemptive fixed-priority stage server.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "callback_listener.h"
#include "sched/stage_server.h"
#include "sched/timeline.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::sched {
namespace {

using frap::testing::CallbackListener;

struct Completion {
  std::uint64_t id;
  Time at;
};

class StageServerTest : public ::testing::Test {
 protected:
  StageServerTest()
      : listener_(
            [this](Job& j) { completions_.push_back({j.id, sim_.now()}); },
            [this] { ++idle_transitions_; }),
        server_(sim_, "test") {
    server_.set_listener(&listener_);
  }

  Job& make_job(std::uint64_t id, PriorityValue prio,
                std::vector<Segment> segs) {
    jobs_.push_back(std::make_unique<Job>(id, prio, std::move(segs)));
    return *jobs_.back();
  }

  Job& simple_job(std::uint64_t id, PriorityValue prio, Duration len) {
    return make_job(id, prio, {Segment{len, kNoLock}});
  }

  sim::Simulator sim_;
  CallbackListener listener_;  // outlives server_
  StageServer server_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<Completion> completions_;
  int idle_transitions_ = 0;
};

TEST_F(StageServerTest, SingleJobRunsToCompletion) {
  sim_.at(1.0, [&] { server_.submit(simple_job(1, 5.0, 2.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_TRUE(server_.idle());
  EXPECT_EQ(idle_transitions_, 1);
}

TEST_F(StageServerTest, FifoAmongEqualPriorities) {
  sim_.at(0.0, [&] {
    server_.submit(simple_job(1, 5.0, 1.0));
    server_.submit(simple_job(2, 5.0, 1.0));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 1.0);
  EXPECT_EQ(completions_[1].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 2.0);
}

TEST_F(StageServerTest, HigherPriorityPreempts) {
  // Low-priority job (value 10) starts at t=0, runs 4s of work.
  // High-priority job (value 1) arrives at t=1 with 2s of work.
  // Timeline: low [0,1), high [1,3), low resumes [3,6).
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 10.0, 4.0)); });
  sim_.at(1.0, [&] { server_.submit(simple_job(2, 1.0, 2.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_EQ(completions_[1].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 6.0);
  EXPECT_EQ(server_.preemptions(), 1u);
}

TEST_F(StageServerTest, LowerPriorityArrivalDoesNotPreempt) {
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 1.0, 3.0)); });
  sim_.at(1.0, [&] { server_.submit(simple_job(2, 10.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_DOUBLE_EQ(completions_[1].at, 4.0);
  EXPECT_EQ(server_.preemptions(), 0u);
}

TEST_F(StageServerTest, NestedPreemption) {
  // Three priority levels arriving in increasing urgency.
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 30.0, 10.0)); });
  sim_.at(2.0, [&] { server_.submit(simple_job(2, 20.0, 4.0)); });
  sim_.at(3.0, [&] { server_.submit(simple_job(3, 10.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 3u);
  EXPECT_EQ(completions_[0].id, 3u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);  // [3,4)
  EXPECT_EQ(completions_[1].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 7.0);  // [2,3)+[4,7)
  EXPECT_EQ(completions_[2].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[2].at, 15.0);  // [0,2)+[7,15)
}

TEST_F(StageServerTest, MeterTracksBusyTime) {
  sim_.at(1.0, [&] { server_.submit(simple_job(1, 1.0, 2.0)); });
  sim_.at(10.0, [&] { server_.submit(simple_job(2, 1.0, 3.0)); });
  sim_.run();
  EXPECT_DOUBLE_EQ(server_.meter().busy_time(0.0, 20.0), 5.0);
  EXPECT_DOUBLE_EQ(server_.meter().utilization(0.0, 20.0), 0.25);
}

TEST_F(StageServerTest, BackToBackJobsProduceOneIdleTransitionEach) {
  sim_.at(0.0, [&] {
    server_.submit(simple_job(1, 1.0, 1.0));
    server_.submit(simple_job(2, 2.0, 1.0));
  });
  sim_.run();
  // Server went idle exactly once (after both finished).
  EXPECT_EQ(idle_transitions_, 1);
  EXPECT_DOUBLE_EQ(server_.meter().busy_time(0.0, 5.0), 2.0);
}

TEST_F(StageServerTest, MultiSegmentJobExecutesAllSegments) {
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 1.0,
                            {Segment{1.0, kNoLock}, Segment{2.0, kNoLock},
                             Segment{0.5, kNoLock}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.5);
}

TEST_F(StageServerTest, ZeroLengthJobCompletesImmediately) {
  sim_.at(2.0, [&] { server_.submit(simple_job(1, 1.0, 0.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.0);
}

TEST_F(StageServerTest, AbortRunningJob) {
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 1.0, 5.0)); });
  sim_.at(1.0, [&] { server_.abort(*jobs_[0]); });
  sim_.run();
  EXPECT_TRUE(completions_.empty());
  EXPECT_TRUE(server_.idle());
  // Busy only while it ran: [0,1).
  EXPECT_DOUBLE_EQ(server_.meter().busy_time(0.0, 10.0), 1.0);
}

TEST_F(StageServerTest, AbortQueuedJobLeavesRunnerUntouched) {
  sim_.at(0.0, [&] {
    server_.submit(simple_job(1, 1.0, 3.0));
    server_.submit(simple_job(2, 2.0, 2.0));
  });
  sim_.at(1.0, [&] { server_.abort(*jobs_[1]); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
}

TEST_F(StageServerTest, AbortOffServerJobIsNoop) {
  Job& j = simple_job(1, 1.0, 1.0);
  server_.abort(j);  // never submitted
  EXPECT_TRUE(server_.idle());
}

TEST_F(StageServerTest, PreemptionBanksPartialProgress) {
  // Job 1 (4s) is preempted twice; total busy time must equal total work.
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 10.0, 4.0)); });
  sim_.at(1.0, [&] { server_.submit(simple_job(2, 1.0, 1.0)); });
  sim_.at(3.0, [&] { server_.submit(simple_job(3, 1.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 3u);
  // Job1: [0,1)+[2,3)+[4,6) -> finishes at 6.
  EXPECT_EQ(completions_.back().id, 1u);
  EXPECT_DOUBLE_EQ(completions_.back().at, 6.0);
  EXPECT_DOUBLE_EQ(server_.meter().busy_time(0.0, 10.0), 6.0);
}

TEST_F(StageServerTest, ActiveJobsCount) {
  sim_.at(0.0, [&] {
    server_.submit(simple_job(1, 1.0, 2.0));
    server_.submit(simple_job(2, 2.0, 2.0));
  });
  sim_.at(1.0, [&] { EXPECT_EQ(server_.active_jobs(), 2u); });
  sim_.at(3.0, [&] { EXPECT_EQ(server_.active_jobs(), 1u); });
  sim_.run();
  EXPECT_EQ(server_.active_jobs(), 0u);
}

// ----------------------------------------------------------------- speed ---

TEST_F(StageServerTest, HalfSpeedDoublesExecutionTime) {
  server_.set_speed(0.5);
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 1.0, 2.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);
}

TEST_F(StageServerTest, SpeedChangeMidJobBanksProgress) {
  // 4s of demand: runs [0,2) at full speed (2s done), then at 0.5x the
  // remaining 2s takes 4s -> finishes at 6.
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 1.0, 4.0)); });
  sim_.at(2.0, [&] { server_.set_speed(0.5); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 6.0);
  // A speed change is not a preemption.
  EXPECT_EQ(server_.preemptions(), 0u);
}

TEST_F(StageServerTest, SpeedUpShortensRemainingWork) {
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 1.0, 4.0)); });
  sim_.at(1.0, [&] { server_.set_speed(2.0); });
  sim_.run();
  // 1s at 1x (1 done) + 3 remaining at 2x (1.5s) -> 2.5.
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.5);
}

TEST_F(StageServerTest, SpeedChangeWhileIdleAffectsNextJob) {
  server_.set_speed(1.0);
  sim_.at(0.0, [&] { server_.set_speed(0.25); });
  sim_.at(1.0, [&] { server_.submit(simple_job(1, 1.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 5.0);
  EXPECT_DOUBLE_EQ(server_.speed(), 0.25);
}

TEST_F(StageServerTest, PreemptionAtReducedSpeedBanksScaledProgress) {
  server_.set_speed(0.5);
  // Low job: 2s demand. At t=2 (1s executed at 0.5x) a high job preempts
  // for its 0.5s demand (1s wall), then low resumes: 1s left -> 2s wall.
  sim_.at(0.0, [&] { server_.submit(simple_job(1, 10.0, 2.0)); });
  sim_.at(2.0, [&] { server_.submit(simple_job(2, 1.0, 0.5)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_EQ(completions_[1].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 5.0);
}

// ------------------------------------------------------------------- PCP ---

class PcpServerTest : public StageServerTest {};

TEST_F(PcpServerTest, BlockedAcquisitionRunsHolderWithInheritance) {
  // Low job (value 10) holds lock 0 during [0, 4). High job (value 1)
  // arrives at t=1 needing lock 0: it blocks, low continues (inheritance),
  // finishes its critical section at 4, high then runs [4, 6).
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 10.0, {Segment{4.0, 0}}));
  });
  sim_.at(1.0, [&] {
    server_.submit(make_job(2, 1.0, {Segment{2.0, 0}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);
  EXPECT_EQ(completions_[1].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 6.0);
}

TEST_F(PcpServerTest, NonLockingHighPriorityStillPreemptsHolder) {
  // PCP allows preemption of a lock holder by a job that needs no lock.
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 10.0, {Segment{4.0, 0}}));
  });
  sim_.at(1.0, [&] { server_.submit(simple_job(2, 1.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.0);
  EXPECT_EQ(completions_[1].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 5.0);
}

TEST_F(PcpServerTest, CeilingBlockingPreventsSecondLock) {
  // Lock 0's ceiling is priority 1 (registered). Job A (value 5) holds
  // lock 0. Job B (value 3) wants lock 1 (free) at t=1 — but B's priority
  // (3) is not higher than the ceiling of lock 0 (1), so B blocks and A
  // runs to completion first (classic ceiling blocking).
  server_.locks().set_ceiling(0, 1.0);
  server_.locks().set_ceiling(1, 3.0);
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 5.0, {Segment{4.0, 0}}));
  });
  sim_.at(1.0, [&] {
    server_.submit(make_job(2, 3.0, {Segment{2.0, 1}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);
  EXPECT_EQ(completions_[1].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 6.0);
}

TEST_F(PcpServerTest, HigherThanCeilingAcquiresFreely) {
  // Job B is MORE urgent than lock 0's ceiling: it may lock lock 1.
  server_.locks().set_ceiling(0, 3.0);
  server_.locks().set_ceiling(1, 1.0);
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 5.0, {Segment{4.0, 0}}));
  });
  sim_.at(1.0, [&] {
    server_.submit(make_job(2, 1.0, {Segment{2.0, 1}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
}

TEST_F(PcpServerTest, BlockedAtMostOnce) {
  // The key PCP property behind Eq. 15: a job blocks on lower-priority
  // critical sections at most once. High job H needs locks via two
  // sequential critical sections; two low jobs hold different locks. With
  // ceilings at H's priority, only ONE low critical section can delay H.
  server_.locks().set_ceiling(0, 1.0);
  server_.locks().set_ceiling(1, 1.0);
  // Low job L1 takes lock 0 at t=0 for 3s.
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 10.0, {Segment{3.0, 0}}));
  });
  // Low job L2 would take lock 1, but arrives while L1 holds lock 0 with
  // ceiling 1.0 >= L2's priority, so it cannot start its critical section
  // until L1 releases: at most one lock is held below H.
  sim_.at(0.5, [&] {
    server_.submit(make_job(2, 9.0, {Segment{3.0, 1}}));
  });
  // High job H at t=1 with two critical sections.
  sim_.at(1.0, [&] {
    server_.submit(make_job(3, 1.0, {Segment{1.0, 0}, Segment{1.0, 1}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 3u);
  // H is blocked only by L1's remaining critical section (2s), then runs
  // 2s: finishes at 3 + 2 = 5. If it were blocked by both low sections it
  // would finish at 8.
  EXPECT_EQ(completions_[0].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_EQ(completions_[1].id, 3u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 5.0);
}

TEST_F(PcpServerTest, LockReleasedOnAbort) {
  sim_.at(0.0, [&] {
    server_.submit(make_job(1, 10.0, {Segment{4.0, 0}}));
  });
  sim_.at(1.0, [&] {
    server_.submit(make_job(2, 1.0, {Segment{2.0, 0}}));
  });
  // Abort the holder at t=2: job 2 should acquire immediately.
  sim_.at(2.0, [&] { server_.abort(*jobs_[0]); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);
  EXPECT_FALSE(server_.locks().is_locked(0));
}

TEST_F(PcpServerTest, CriticalAndNormalSegmentsInterleave) {
  // Job with normal / critical / normal segments; preempted in its normal
  // segment by a high job needing the same lock while NOT held -> no block.
  sim_.at(0.0, [&] {
    server_.submit(make_job(
        1, 10.0,
        {Segment{1.0, kNoLock}, Segment{2.0, 0}, Segment{1.0, kNoLock}}));
  });
  // Arrives at t=0.5 during job 1's normal segment; lock 0 free -> runs now.
  sim_.at(0.5, [&] {
    server_.submit(make_job(2, 1.0, {Segment{1.0, 0}}));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 1.5);
  EXPECT_DOUBLE_EQ(completions_[1].at, 5.0);
}

// Randomized PCP fuzz: arbitrary mixes of lock-free and critical segments
// must always drain (no deadlock), complete every job exactly once, leave
// all locks free, and conserve total work.
class PcpFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcpFuzzTest, RandomLockWorkloadsDrainWithInvariants) {
  util::Rng rng(GetParam() * 97 + 11);
  sim::Simulator sim;
  StageServer server(sim, "pcp-fuzz");
  Timeline timeline;
  server.set_timeline(&timeline);

  int completions = 0;
  CallbackListener listener([&](Job&) { ++completions; });
  server.set_listener(&listener);

  const int num_jobs = 80;
  const int num_locks = 3;
  std::vector<std::unique_ptr<Job>> jobs;
  Duration total_work = 0;
  Time t = 0;
  for (int i = 0; i < num_jobs; ++i) {
    t += rng.exponential(0.6);
    std::vector<Segment> segs;
    const auto parts = rng.uniform_int(1, 3);
    for (std::int64_t p = 0; p < parts; ++p) {
      const Duration len = rng.uniform(0.05, 1.0);
      total_work += len;
      const int lock = rng.bernoulli(0.5)
                           ? static_cast<int>(rng.uniform_int(0, num_locks - 1))
                           : kNoLock;
      segs.push_back(Segment{len, lock});
    }
    jobs.push_back(std::make_unique<Job>(static_cast<std::uint64_t>(i + 1),
                                         rng.uniform(0.0, 5.0),
                                         std::move(segs)));
    Job* j = jobs.back().get();
    sim.at(t, [&server, j] { server.submit(*j); });
  }
  sim.run();  // must terminate: no deadlock under PCP

  EXPECT_EQ(completions, num_jobs);
  EXPECT_TRUE(server.idle());
  for (int l = 0; l < num_locks; ++l) {
    EXPECT_FALSE(server.locks().is_locked(l)) << "lock " << l;
  }
  EXPECT_TRUE(timeline.non_overlapping());
  Duration executed = 0;
  for (int i = 0; i < num_jobs; ++i) {
    executed += timeline.executed(static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_NEAR(executed, total_work, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcpFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace frap::sched
