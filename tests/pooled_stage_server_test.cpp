#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "callback_listener.h"
#include "legacy_pooled_stage_server.h"
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

class PooledServerTest : public ::testing::Test {
 protected:
  void build(std::size_t m) {
    server_ = std::make_unique<StageServer>(sim_, "pool",
                                            fixed_priority_policy(), m);
    server_->set_listener(&listener_);
  }

  Job& job(std::uint64_t id, PriorityValue prio, Duration len) {
    jobs_.push_back(std::make_unique<Job>(
        id, prio, std::vector<Segment>{Segment{len, kNoLock}}));
    return *jobs_.back();
  }

  sim::Simulator sim_;
  CallbackListener listener_{
      [this](Job& j) { completions_.push_back({j.id, sim_.now()}); },
      [this] { ++idle_transitions_; }};
  std::unique_ptr<StageServer> server_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<Completion> completions_;
  int idle_transitions_ = 0;
};

TEST_F(PooledServerTest, TwoJobsRunInParallelOnTwoProcessors) {
  build(2);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 2.0));
    server_->submit(job(2, 2.0, 2.0));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.0);
  EXPECT_DOUBLE_EQ(completions_[1].at, 2.0);  // parallel, not serial
}

TEST_F(PooledServerTest, ThirdJobWaitsOnTwoProcessors) {
  build(2);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 2.0));
    server_->submit(job(2, 2.0, 2.0));
    server_->submit(job(3, 3.0, 1.0));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 3u);
  // Job 3 starts only when a processor frees at t=2.
  EXPECT_EQ(completions_[2].id, 3u);
  EXPECT_DOUBLE_EQ(completions_[2].at, 3.0);
}

TEST_F(PooledServerTest, PreemptsLowestPriorityRunningJob) {
  build(2);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 5.0, 4.0));
    server_->submit(job(2, 6.0, 4.0));
  });
  // More urgent arrival at t=1 preempts job 2 (the least urgent runner).
  sim_.at(1.0, [&] { server_->submit(job(3, 1.0, 1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 3u);
  EXPECT_EQ(completions_[0].id, 3u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.0);
  // Job 1 was never preempted: finishes at 4. Job 2 lost [1,2): finishes 5.
  EXPECT_EQ(completions_[1].id, 1u);
  EXPECT_DOUBLE_EQ(completions_[1].at, 4.0);
  EXPECT_EQ(completions_[2].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[2].at, 5.0);
  EXPECT_EQ(server_->preemptions(), 1u);
}

TEST_F(PooledServerTest, PoolUtilizationAveragesProcessors) {
  build(2);
  sim_.at(0.0, [&] { server_->submit(job(1, 1.0, 3.0)); });
  sim_.run();
  sim_.run_until(6.0);
  // One processor busy 3 of 6 seconds, the other idle: pool = 0.25.
  EXPECT_DOUBLE_EQ(server_->utilization(0.0, 6.0), 0.25);
}

TEST_F(PooledServerTest, AbortFreesProcessor) {
  build(1);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 5.0));
    server_->submit(job(2, 2.0, 1.0));
  });
  sim_.at(1.0, [&] { server_->abort(*jobs_[0]); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].id, 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 2.0);
}

TEST_F(PooledServerTest, IdleCallbackFiresWhenPoolDrains) {
  build(3);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 1.0));
    server_->submit(job(2, 2.0, 2.0));
  });
  sim_.run();
  EXPECT_EQ(idle_transitions_, 1);
  EXPECT_TRUE(server_->idle());
}

TEST_F(PooledServerTest, WorkConservation) {
  build(3);
  util::Rng rng(11);
  Duration total = 0;
  sim_.at(0.0, [&] {
    for (int i = 0; i < 20; ++i) {
      const Duration len = rng.uniform(0.1, 2.0);
      total += len;
      server_->submit(job(static_cast<std::uint64_t>(i + 1),
                          rng.uniform01(), len));
    }
  });
  sim_.run();
  EXPECT_EQ(completions_.size(), 20u);
  Duration busy = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    busy += server_->meter(p).busy_time(0.0, sim_.now() + 1.0);
  }
  EXPECT_NEAR(busy, total, 1e-9);
}

TEST_F(PooledServerTest, TimelineCapturesParallelIntervals) {
  build(2);
  Timeline timeline;
  server_->set_timeline(&timeline);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 2.0));
    server_->submit(job(2, 2.0, 3.0));
  });
  sim_.run();
  EXPECT_DOUBLE_EQ(timeline.executed(1), 2.0);
  EXPECT_DOUBLE_EQ(timeline.executed(2), 3.0);
  // Two processors: intervals overlap across rows (this is legal for a
  // pool, so non_overlapping() is expected to be false here).
  EXPECT_FALSE(timeline.non_overlapping());
}

TEST_F(PooledServerTest, SpeedScalesThePool) {
  build(2);
  server_->set_speed(0.5);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 2.0));
    server_->submit(job(2, 2.0, 2.0));
  });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 4.0);
  EXPECT_DOUBLE_EQ(completions_[1].at, 4.0);
}

TEST_F(PooledServerTest, SpeedChangeMidRunBanksAllProcessors) {
  build(2);
  sim_.at(0.0, [&] {
    server_->submit(job(1, 1.0, 4.0));
    server_->submit(job(2, 2.0, 4.0));
  });
  sim_.at(2.0, [&] { server_->set_speed(2.0); });
  sim_.run();
  // 2s at 1x leaves 2s demand each; at 2x that is 1s wall: done at 3.
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_DOUBLE_EQ(completions_[0].at, 3.0);
  EXPECT_DOUBLE_EQ(completions_[1].at, 3.0);
}

// The pool semantics at m = 1 (the frozen pre-merge pool executor) must
// reproduce StageServer's single-processor schedule exactly.
class PooledVsUniprocessorTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PooledVsUniprocessorTest, SingleProcessorPoolMatchesStageServer) {
  util::Rng rng(GetParam() * 77 + 5);
  struct Spec {
    std::uint64_t id;
    Time arrival;
    PriorityValue prio;
    Duration len;
  };
  std::vector<Spec> specs;
  Time t = 0;
  for (int i = 0; i < 40; ++i) {
    t += rng.exponential(1.0);
    specs.push_back(Spec{static_cast<std::uint64_t>(i + 1), t,
                         static_cast<PriorityValue>(rng.uniform_int(1, 3)),
                         rng.exponential(1.0)});
  }

  auto run_uni = [&] {
    sim::Simulator sim;
    StageServer server(sim, "uni");
    std::map<std::uint64_t, Time> done;
    CallbackListener listener([&](Job& j) { done[j.id] = sim.now(); });
    server.set_listener(&listener);
    std::vector<std::unique_ptr<Job>> jobs;
    for (const auto& s : specs) {
      jobs.push_back(std::make_unique<Job>(
          s.id, s.prio, std::vector<Segment>{Segment{s.len, kNoLock}}));
      Job* j = jobs.back().get();
      sim.at(s.arrival, [&server, j] { server.submit(*j); });
    }
    sim.run();
    return done;
  };
  auto run_pool = [&] {
    sim::Simulator sim;
    LegacyPooledStageServer server(sim, 1, "pool");
    std::map<std::uint64_t, Time> done;
    server.set_on_complete([&](Job& j) { done[j.id] = sim.now(); });
    std::vector<std::unique_ptr<Job>> jobs;
    for (const auto& s : specs) {
      jobs.push_back(std::make_unique<Job>(
          s.id, s.prio, std::vector<Segment>{Segment{s.len, kNoLock}}));
      Job* j = jobs.back().get();
      sim.at(s.arrival, [&server, j] { server.submit(*j); });
    }
    sim.run();
    return done;
  };

  const auto uni = run_uni();
  const auto pool = run_pool();
  ASSERT_EQ(uni.size(), pool.size());
  for (const auto& [id, at] : uni) {
    EXPECT_EQ(pool.at(id), at) << "job " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PooledVsUniprocessorTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_F(PooledServerTest, MoreProcessorsNeverHurtMakespan) {
  util::Rng rng(123);
  struct Spec {
    PriorityValue prio;
    Duration len;
  };
  std::vector<Spec> specs;
  for (int i = 0; i < 30; ++i) {
    specs.push_back(Spec{rng.uniform01(), rng.uniform(0.1, 1.0)});
  }
  Time last_makespan = 1e18;
  for (std::size_t m : {1u, 2u, 4u}) {
    sim::Simulator sim;
    StageServer server(sim, "pool", fixed_priority_policy(), m);
    Time makespan = 0;
    CallbackListener listener([&](Job&) { makespan = sim.now(); });
    server.set_listener(&listener);
    std::vector<std::unique_ptr<Job>> jobs;
    sim.at(0.0, [&] {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        jobs.push_back(std::make_unique<Job>(
            i + 1, specs[i].prio,
            std::vector<Segment>{Segment{specs[i].len, kNoLock}}));
        server.submit(*jobs.back());
      }
    });
    sim.run();
    EXPECT_LE(makespan, last_makespan + 1e-9) << "m=" << m;
    last_makespan = makespan;
  }
}

}  // namespace
}  // namespace frap::sched
