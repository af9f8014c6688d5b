// The pluggable scheduling-policy API: registry behavior, the typed
// StageListener surface, and hand-computed EDF / LLF / gEDF schedules
// validated through Gantt (Timeline) capture — the validation style of the
// fixed-priority -> EDF retrofits this layer follows.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "callback_listener.h"
#include "sched/gantt.h"
#include "sched/policy.h"
#include "sched/stage_server.h"
#include "sched/timeline.h"
#include "sim/simulator.h"

namespace frap::sched {
namespace {

using frap::testing::CallbackListener;

struct Completion {
  std::uint64_t id;
  Time at;
};

// ---------------------------------------------------------------------------
// Policy registry & metadata.

TEST(PolicyRegistryTest, NamesAndModes) {
  EXPECT_EQ(fixed_priority_policy().name(), "fixed");
  EXPECT_EQ(edf_policy().name(), "edf");
  EXPECT_EQ(llf_policy().name(), "llf");

  EXPECT_EQ(fixed_priority_policy().key_mode(), KeyMode::kStatic);
  EXPECT_EQ(edf_policy().key_mode(), KeyMode::kDynamic);
  EXPECT_EQ(llf_policy().key_mode(), KeyMode::kDynamic);

  EXPECT_TRUE(fixed_priority_policy().supports_locks());
  EXPECT_FALSE(edf_policy().supports_locks());
  EXPECT_FALSE(llf_policy().supports_locks());
}

TEST(PolicyKeyTest, DispatchKeyValues) {
  Job job(1, 7.0, {Segment{2.0, kNoLock}});
  job.absolute_deadline = 12.0;
  const JobView view{&job, 2.0};
  EXPECT_DOUBLE_EQ(fixed_priority_policy().dispatch_key(view, 3.0), 7.0);
  EXPECT_DOUBLE_EQ(edf_policy().dispatch_key(view, 3.0), 12.0);
  // laxity = deadline - now - remaining = 12 - 3 - 2.
  EXPECT_DOUBLE_EQ(llf_policy().dispatch_key(view, 3.0), 7.0);
}

// ---------------------------------------------------------------------------
// Typed listener surface.

class RecordingListener : public StageListener {
 public:
  void on_job_complete(StageServer& stage, Job& job) override {
    completed_ids.push_back(job.id);
    completion_tags.push_back(stage.tag());
  }
  void on_stage_idle(StageServer& stage) override {
    idle_tags.push_back(stage.tag());
  }

  std::vector<std::uint64_t> completed_ids;
  std::vector<std::size_t> completion_tags;
  std::vector<std::size_t> idle_tags;
};

TEST(StageListenerTest, TypedListenerReceivesTaggedCallbacks) {
  sim::Simulator sim;
  StageServer server(sim, "tagged");
  server.set_tag(7);
  RecordingListener listener;
  server.set_listener(&listener);

  Job job(1, 5.0, {Segment{2.0, kNoLock}});
  sim.at(0.0, [&] { server.submit(job); });
  sim.run();

  ASSERT_EQ(listener.completed_ids.size(), 1u);
  EXPECT_EQ(listener.completed_ids[0], 1u);
  ASSERT_EQ(listener.completion_tags.size(), 1u);
  EXPECT_EQ(listener.completion_tags[0], 7u);
  ASSERT_EQ(listener.idle_tags.size(), 1u);
  EXPECT_EQ(listener.idle_tags[0], 7u);
  EXPECT_EQ(server.policy().name(), "fixed");
}

TEST(StageListenerTest, SetListenerReplacesPreviousListener) {
  sim::Simulator sim;
  StageServer server(sim, "replaced");
  RecordingListener first;
  server.set_listener(&first);
  RecordingListener second;
  server.set_listener(&second);  // displaces the first listener

  Job job(1, 5.0, {Segment{1.0, kNoLock}});
  sim.at(0.0, [&] { server.submit(job); });
  sim.run();

  EXPECT_TRUE(first.completed_ids.empty());
  EXPECT_TRUE(first.idle_tags.empty());
  EXPECT_EQ(second.completed_ids.size(), 1u);
}

// ---------------------------------------------------------------------------
// Hand-computed EDF schedules (uniprocessor).

class PolicyScheduleTest : public ::testing::Test {
 protected:
  Job& make_job(std::uint64_t id, Duration len, Time absolute_deadline) {
    jobs_.push_back(
        std::make_unique<Job>(id, 0.0, std::vector<Segment>{
                                           Segment{len, kNoLock}}));
    jobs_.back()->absolute_deadline = absolute_deadline;
    return *jobs_.back();
  }

  void expect_interval(const Timeline& tl, std::size_t i, std::uint64_t job,
                       Time start, Time end) {
    ASSERT_LT(i, tl.size());
    EXPECT_EQ(tl[i].job_id, job) << "interval " << i;
    EXPECT_DOUBLE_EQ(tl[i].start, start) << "interval " << i;
    EXPECT_DOUBLE_EQ(tl[i].end, end) << "interval " << i;
  }

  sim::Simulator sim_;
  std::vector<std::unique_ptr<Job>> jobs_;
  Timeline timeline_;
};

TEST_F(PolicyScheduleTest, EdfPreemptsByAbsoluteDeadline) {
  // J1: release 0, 10s of work, deadline 20. J2: release 2, 3s, deadline 6.
  // EDF: J1 [0,2), J2 [2,5), J1 [5,13). Fixed-priority with equal priority
  // values would have run J1 to completion first.
  StageServer server(sim_, "edf", edf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] { server.submit(make_job(1, 10.0, 20.0)); });
  sim_.at(2.0, [&] { server.submit(make_job(2, 3.0, 6.0)); });
  sim_.run();

  ASSERT_EQ(timeline_.size(), 3u);
  expect_interval(timeline_, 0, 1, 0.0, 2.0);
  expect_interval(timeline_, 1, 2, 2.0, 5.0);
  expect_interval(timeline_, 2, 1, 5.0, 13.0);
  EXPECT_EQ(server.preemptions(), 1u);
  EXPECT_TRUE(timeline_.non_overlapping());
}

TEST_F(PolicyScheduleTest, EdfThreeTaskHandComputedSchedule) {
  // J1: release 0, 4s, deadline 16; J2: release 1, 2s, deadline 5;
  // J3: release 2, 3s, deadline 10.
  //   t=1: J2 (d=5) preempts J1 (d=16), runs [1,3).
  //   t=3: J3 (d=10) beats J1 (d=16), runs [3,6).
  //   t=6: J1 resumes [6,9).
  StageServer server(sim_, "edf", edf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] { server.submit(make_job(1, 4.0, 16.0)); });
  sim_.at(1.0, [&] { server.submit(make_job(2, 2.0, 5.0)); });
  sim_.at(2.0, [&] { server.submit(make_job(3, 3.0, 10.0)); });
  sim_.run();

  ASSERT_EQ(timeline_.size(), 4u);
  expect_interval(timeline_, 0, 1, 0.0, 1.0);
  expect_interval(timeline_, 1, 2, 1.0, 3.0);
  expect_interval(timeline_, 2, 3, 3.0, 6.0);
  expect_interval(timeline_, 3, 1, 6.0, 9.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(1), 4.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(2), 2.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(3), 3.0);
}

TEST_F(PolicyScheduleTest, EdfEqualDeadlinesFallBackToFifo) {
  StageServer server(sim_, "edf", edf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] {
    server.submit(make_job(1, 1.0, 10.0));
    server.submit(make_job(2, 1.0, 10.0));
  });
  sim_.run();

  ASSERT_EQ(timeline_.size(), 2u);
  expect_interval(timeline_, 0, 1, 0.0, 1.0);
  expect_interval(timeline_, 1, 2, 1.0, 2.0);
  EXPECT_EQ(server.preemptions(), 0u);
}

// ---------------------------------------------------------------------------
// Hand-computed LLF schedules.

TEST_F(PolicyScheduleTest, LlfPreemptsOnTightLaxity) {
  // J1: release 0, 8s, deadline 20 (laxity 12). J2: release 4, 2s,
  // deadline 8: at t=4 laxity(J1) = 20-4-4 = 12, laxity(J2) = 8-4-2 = 2,
  // so J2 preempts: J1 [0,4), J2 [4,6), J1 [6,10).
  StageServer server(sim_, "llf", llf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] { server.submit(make_job(1, 8.0, 20.0)); });
  sim_.at(4.0, [&] { server.submit(make_job(2, 2.0, 8.0)); });
  sim_.run();

  ASSERT_EQ(timeline_.size(), 3u);
  expect_interval(timeline_, 0, 1, 0.0, 4.0);
  expect_interval(timeline_, 1, 2, 4.0, 6.0);
  expect_interval(timeline_, 2, 1, 6.0, 10.0);
  EXPECT_EQ(server.preemptions(), 1u);
}

TEST_F(PolicyScheduleTest, LlfOrdersByLaxityNotDeadline) {
  // Both released at t=0. J1: 1s of work, deadline 10 (laxity 9). J2: 8s of
  // work, deadline 12 (laxity 4). EDF would run J1 first (10 < 12); LLF
  // runs J2 first. J1's preempt-at-submit leaves a zero-length interval.
  StageServer server(sim_, "llf", llf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] {
    server.submit(make_job(1, 1.0, 10.0));
    server.submit(make_job(2, 8.0, 12.0));
  });
  sim_.run();

  ASSERT_EQ(timeline_.size(), 3u);
  expect_interval(timeline_, 0, 1, 0.0, 0.0);  // displaced before running
  expect_interval(timeline_, 1, 2, 0.0, 8.0);
  expect_interval(timeline_, 2, 1, 8.0, 9.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(1), 1.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(2), 8.0);
}

TEST_F(PolicyScheduleTest, GanttRenderMatchesEdfSchedule) {
  // Same fixture as EdfPreemptsByAbsoluteDeadline rendered through
  // sched/gantt.h: 13 cells over [0,13) make each cell one second.
  StageServer server(sim_, "edf", edf_policy());
  server.set_timeline(&timeline_);
  sim_.at(0.0, [&] { server.submit(make_job(1, 10.0, 20.0)); });
  sim_.at(2.0, [&] { server.submit(make_job(2, 3.0, 6.0)); });
  sim_.run();

  const std::string gantt = render_ascii_gantt(timeline_, 0.0, 13.0, 13);
  EXPECT_NE(gantt.find("|##...########|"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("|..###........|"), std::string::npos) << gantt;
}

// ---------------------------------------------------------------------------
// Global EDF on a processor pool.

TEST_F(PolicyScheduleTest, GlobalEdfRunsTopTwoByDeadline) {
  // Two processors, three jobs at t=0: J1 (4s, d=20), J2 (4s, d=10),
  // J3 (2s, d=5). gEDF: J2 and J3 occupy the pool, J1 waits for J3's
  // completion at t=2, then runs [2,6).
  StageServer pool(sim_, "gedf", edf_policy(), 2);
  pool.set_timeline(&timeline_);
  std::vector<Completion> completions;
  CallbackListener listener(
      [&](Job& j) { completions.push_back({j.id, sim_.now()}); });
  pool.set_listener(&listener);
  sim_.at(0.0, [&] {
    pool.submit(make_job(1, 4.0, 20.0));
    pool.submit(make_job(2, 4.0, 10.0));
    pool.submit(make_job(3, 2.0, 5.0));
  });
  sim_.run();

  EXPECT_DOUBLE_EQ(timeline_.executed(1), 4.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(2), 4.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(3), 2.0);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].id, 3u);
  EXPECT_DOUBLE_EQ(completions[0].at, 2.0);
  EXPECT_EQ(completions[1].id, 2u);
  EXPECT_DOUBLE_EQ(completions[1].at, 4.0);
  EXPECT_EQ(completions[2].id, 1u);
  EXPECT_DOUBLE_EQ(completions[2].at, 6.0);
  EXPECT_EQ(pool.policy().name(), "edf");
}

TEST_F(PolicyScheduleTest, GlobalEdfPreemptsAcrossThePool) {
  // Two processors. J1 (10s, d=30) and J2 (10s, d=25) start at t=0; at t=1
  // J3 (2s, d=5) arrives and must displace J1 (the latest deadline), which
  // resumes once J3 finishes at t=3.
  StageServer pool(sim_, "gedf", edf_policy(), 2);
  pool.set_timeline(&timeline_);
  sim_.at(0.0, [&] {
    pool.submit(make_job(1, 10.0, 30.0));
    pool.submit(make_job(2, 10.0, 25.0));
  });
  sim_.at(1.0, [&] { pool.submit(make_job(3, 2.0, 5.0)); });
  sim_.run();

  EXPECT_EQ(pool.preemptions(), 1u);
  EXPECT_DOUBLE_EQ(timeline_.executed(1), 10.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(2), 10.0);
  EXPECT_DOUBLE_EQ(timeline_.executed(3), 2.0);
  // J1 ran [0,1), lost its processor to J3 over [1,3), resumed [3,12).
  bool found_gap_resume = false;
  for (const RunInterval& iv : timeline_.intervals()) {
    if (iv.job_id == 1 && util::time_close(iv.start, 3.0) &&
        util::time_close(iv.end, 12.0)) {
      found_gap_resume = true;
    }
  }
  EXPECT_TRUE(found_gap_resume);
}

// ---------------------------------------------------------------------------
// Dynamic keys interact correctly with speed changes (banking).

TEST_F(PolicyScheduleTest, EdfSurvivesSpeedChangeWithBanking) {
  // J1 (4s of demand, d=20) at speed 1 until t=2 (2s banked), then the
  // stage slows to 0.5x: the remaining 2s of demand take 4s of wall time,
  // finishing at t=6.
  StageServer server(sim_, "edf", edf_policy());
  server.set_timeline(&timeline_);
  std::vector<Completion> completions;
  CallbackListener listener(
      [&](Job& j) { completions.push_back({j.id, sim_.now()}); });
  server.set_listener(&listener);
  sim_.at(0.0, [&] { server.submit(make_job(1, 4.0, 20.0)); });
  sim_.at(2.0, [&] { server.set_speed(0.5); });
  sim_.run();

  ASSERT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(completions[0].at, 6.0);
}

}  // namespace
}  // namespace frap::sched
