// Differential pin for the scheduling-policy redesign: the refactored
// StageServer dispatching through the default fixed-priority policy must
// reproduce the PRE-redesign executor bit-identically. LegacyStageServer
// below is a frozen copy of the original implementation (std::function
// callbacks, key assignment and dispatch inlined); both servers are driven
// with identical randomized scripts — submissions, priorities (with
// deliberate ties), multi-segment jobs, PCP critical sections, aborts, and
// speed changes — over >= 1000 seeds, and every observable is compared with
// exact (bit-level) equality: run intervals, completion and idle event
// times, preemption counts, and meter busy time. The admission controller
// consumes exactly these signals (departure times and idle transitions), so
// identical sequences imply identical admission decisions.
//
// The same comparison pins the m-processor path: StageServer at m = 1..4
// under the fixed-priority, EDF and LLF policies against a frozen copy of
// the pool executor it absorbed, including each processor's busy time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "callback_listener.h"
#include "legacy_pooled_stage_server.h"
#include "metrics/utilization_meter.h"
#include "sched/job.h"
#include "sched/pcp.h"
#include "sched/policy.h"
#include "sched/stage_server.h"
#include "sched/timeline.h"
#include "sim/simulator.h"

namespace frap::sched {
namespace {

// ---------------------------------------------------------------------------
// Frozen pre-redesign executor (verbatim except for the class name). Do not
// "improve" this code: its value is that it never changes.

class LegacyStageServer {
 public:
  explicit LegacyStageServer(sim::Simulator& sim, std::string name = {})
      : sim_(sim), name_(std::move(name)) {}

  LegacyStageServer(const LegacyStageServer&) = delete;
  LegacyStageServer& operator=(const LegacyStageServer&) = delete;

  void set_on_complete(std::function<void(Job&)> cb) {
    on_complete_ = std::move(cb);
  }
  void set_on_idle(std::function<void()> cb) { on_idle_ = std::move(cb); }

  void submit(Job& job) {
    job.on_server = true;
    job.segment_index = 0;
    job.remaining = job.segments[0].length;
    job.held_lock = kNoLock;
    job.key = PriorityKey{job.priority_value, next_seq_++};
    for (const auto& seg : job.segments) {
      if (seg.lock != kNoLock) locks_.note_user(seg.lock, job.priority_value);
    }
    active_.push_back(&job);
    dispatch();
  }

  void abort(Job& job) {
    if (!job.on_server) return;
    auto it = std::find(active_.begin(), active_.end(), &job);
    if (it == active_.end()) return;
    if (running_ == &job) preempt_running();
    if (job.held_lock != kNoLock) locks_.release(job, job.held_lock);
    remove_active(job);
    dispatch();
    if (idle() && on_idle_) on_idle_();
  }

  bool idle() const { return active_.empty(); }
  const metrics::UtilizationMeter& meter() const { return meter_; }
  std::uint64_t preemptions() const { return preemptions_; }
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }

  void set_speed(double speed) {
    if (speed == speed_) return;
    Job* resumed = running_;
    if (resumed != nullptr) preempt_running();
    speed_ = speed;
    if (resumed != nullptr || !active_.empty()) dispatch();
  }

 private:
  Job* pick_next() {
    if (active_.empty()) return nullptr;
    Job* best = *std::min_element(
        active_.begin(), active_.end(),
        [](const Job* a, const Job* b) { return a->key < b->key; });
    const Segment& seg = best->segments[best->segment_index];
    if (seg.lock != kNoLock && best->held_lock != seg.lock &&
        !locks_.can_acquire(*best, seg.lock)) {
      Job* blk = locks_.blocker(*best, seg.lock);
      return blk;
    }
    return best;
  }

  void preempt_running() {
    const Duration elapsed = (sim_.now() - run_started_) * speed_;
    running_->remaining = std::max(0.0, running_->remaining - elapsed);
    if (timeline_ != nullptr) {
      timeline_->record(running_->id, run_started_, sim_.now(),
                        running_->segment_index);
    }
    sim_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEventId;
    running_ = nullptr;
  }

  void dispatch() {
    Job* next = pick_next();
    if (next != running_) {
      if (running_ != nullptr) {
        preempt_running();
        ++preemptions_;
      }
      if (next != nullptr) {
        running_ = next;
        next->has_started = true;
        run_started_ = sim_.now();
        const Segment& seg = next->segments[next->segment_index];
        if (seg.lock != kNoLock && next->held_lock != seg.lock) {
          locks_.acquire(*next, seg.lock);
        }
        completion_event_ = sim_.after(
            next->remaining / speed_, [this] { handle_segment_completion(); });
      }
    }
    if (running_ != nullptr && !meter_busy_) {
      meter_.set_busy(sim_.now());
      meter_busy_ = true;
    } else if (running_ == nullptr && meter_busy_) {
      meter_.set_idle(sim_.now());
      meter_busy_ = false;
    }
  }

  void handle_segment_completion() {
    Job* job = running_;
    completion_event_ = sim::kInvalidEventId;
    running_ = nullptr;
    job->remaining = 0;
    if (timeline_ != nullptr) {
      timeline_->record(job->id, run_started_, sim_.now(),
                        job->segment_index);
    }
    const Segment& seg = job->segments[job->segment_index];
    if (seg.lock != kNoLock && job->held_lock == seg.lock) {
      locks_.release(*job, seg.lock);
    }
    bool finished = false;
    if (job->segment_index + 1 < job->segments.size()) {
      ++job->segment_index;
      job->remaining = job->segments[job->segment_index].length;
    } else {
      remove_active(*job);
      finished = true;
    }
    dispatch();
    if (finished) {
      if (on_complete_) on_complete_(*job);
      if (idle() && on_idle_) on_idle_();
    }
  }

  void remove_active(Job& job) {
    auto it = std::find(active_.begin(), active_.end(), &job);
    active_.erase(it);
    job.on_server = false;
  }

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Job*> active_;
  Job* running_ = nullptr;
  Time run_started_ = kTimeZero;
  sim::EventId completion_event_ = sim::kInvalidEventId;
  bool meter_busy_ = false;
  PcpLockManager locks_;
  metrics::UtilizationMeter meter_;
  Timeline* timeline_ = nullptr;
  std::function<void(Job&)> on_complete_;
  std::function<void()> on_idle_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t preemptions_ = 0;
  double speed_ = 1.0;
};

// ---------------------------------------------------------------------------
// Randomized workload scripts.

struct ScriptedJob {
  Time submit_at = kTimeZero;
  PriorityValue priority = 0;
  std::vector<Segment> segments;
};

struct Script {
  std::vector<ScriptedJob> jobs;
  // Optional abort: (time, job index). Aborts may hit completed jobs (then
  // they are no-ops) — both servers must agree on that too.
  bool has_abort = false;
  Time abort_at = kTimeZero;
  std::size_t abort_index = 0;
  // Optional speed change.
  bool has_speed_change = false;
  Time speed_change_at = kTimeZero;
  double new_speed = 1.0;
};

Script make_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> job_count(1, 16);
  std::uniform_int_distribution<int> seg_count(1, 3);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_real_distribution<double> when(0.0, 40.0);
  std::uniform_real_distribution<double> length(0.1, 8.0);
  // A coarse grid of priorities makes ties (FIFO tie-break coverage) and
  // PCP ceiling collisions common.
  std::uniform_int_distribution<int> prio(1, 5);
  std::uniform_int_distribution<int> lock_id(0, 1);

  Script s;
  const int n = job_count(rng);
  s.jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ScriptedJob j;
    j.submit_at = when(rng);
    j.priority = static_cast<PriorityValue>(prio(rng));
    const int segs = seg_count(rng);
    for (int k = 0; k < segs; ++k) {
      Segment seg;
      seg.length = length(rng);
      // ~30% of segments are critical sections on one of two stage locks.
      if (percent(rng) < 30) seg.lock = lock_id(rng);
      j.segments.push_back(seg);
    }
    s.jobs.push_back(std::move(j));
  }
  if (percent(rng) < 40) {
    s.has_abort = true;
    s.abort_at = when(rng);
    s.abort_index =
        static_cast<std::size_t>(percent(rng)) % s.jobs.size();
  }
  if (percent(rng) < 30) {
    s.has_speed_change = true;
    s.speed_change_at = when(rng);
    s.new_speed = 0.5 + 0.25 * (percent(rng) % 4);  // 0.5, 0.75, 1.0, 1.25
  }
  return s;
}

// Everything an admission controller (or a Gantt chart) can observe about
// one run.
struct Observed {
  Timeline timeline;
  std::vector<std::uint64_t> completion_ids;
  std::vector<Time> completion_times;
  std::vector<Time> idle_times;
  std::uint64_t preemptions = 0;
  Duration busy_time = 0;
  Time finished_at = kTimeZero;
};

template <typename Server>
Observed run_script(const Script& s) {
  sim::Simulator sim;
  Server server(sim, "diff");
  Observed out;
  server.set_timeline(&out.timeline);
  const auto on_complete = [&](Job& j) {
    out.completion_ids.push_back(j.id);
    out.completion_times.push_back(sim.now());
  };
  const auto on_idle = [&] { out.idle_times.push_back(sim.now()); };
  frap::testing::CallbackListener listener(on_complete, on_idle);
  if constexpr (std::is_same_v<Server, LegacyStageServer>) {
    server.set_on_complete(on_complete);
    server.set_on_idle(on_idle);
  } else {
    server.set_listener(&listener);
  }

  std::vector<std::unique_ptr<Job>> jobs;
  jobs.reserve(s.jobs.size());
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    jobs.push_back(std::make_unique<Job>(static_cast<std::uint64_t>(i + 1),
                                         s.jobs[i].priority,
                                         s.jobs[i].segments));
    Job* job = jobs.back().get();
    sim.at(s.jobs[i].submit_at, [&server, job] { server.submit(*job); });
  }
  if (s.has_abort) {
    Job* victim = jobs[s.abort_index].get();
    sim.at(s.abort_at, [&server, victim] { server.abort(*victim); });
  }
  if (s.has_speed_change) {
    sim.at(s.speed_change_at,
           [&server, &s] { server.set_speed(s.new_speed); });
  }
  sim.run();
  out.preemptions = server.preemptions();
  out.finished_at = sim.now();
  out.busy_time = server.meter().busy_time(kTimeZero, out.finished_at + 1.0);
  return out;
}

// Exact equality throughout: "bit-identical" is the contract, so no
// tolerance is applied anywhere. EXPECT_EQ on doubles compares with ==.
void expect_identical(const Observed& legacy, const Observed& fresh,
                      std::uint64_t seed) {
  ASSERT_EQ(legacy.timeline.size(), fresh.timeline.size()) << "seed " << seed;
  for (std::size_t i = 0; i < legacy.timeline.size(); ++i) {
    const RunInterval& a = legacy.timeline[i];
    const RunInterval& b = fresh.timeline[i];
    EXPECT_EQ(a.job_id, b.job_id) << "seed " << seed << " interval " << i;
    EXPECT_EQ(a.start, b.start) << "seed " << seed << " interval " << i;
    EXPECT_EQ(a.end, b.end) << "seed " << seed << " interval " << i;
    EXPECT_EQ(a.segment, b.segment) << "seed " << seed << " interval " << i;
  }
  EXPECT_EQ(legacy.completion_ids, fresh.completion_ids) << "seed " << seed;
  EXPECT_EQ(legacy.completion_times, fresh.completion_times)
      << "seed " << seed;
  EXPECT_EQ(legacy.idle_times, fresh.idle_times) << "seed " << seed;
  EXPECT_EQ(legacy.preemptions, fresh.preemptions) << "seed " << seed;
  EXPECT_EQ(legacy.busy_time, fresh.busy_time) << "seed " << seed;
  EXPECT_EQ(legacy.finished_at, fresh.finished_at) << "seed " << seed;
}

TEST(PolicyDifferentialTest, DefaultPolicyBitIdenticalToLegacyOver1kSeeds) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const Script s = make_script(seed);
    const Observed legacy = run_script<LegacyStageServer>(s);
    const Observed fresh = run_script<StageServer>(s);
    expect_identical(legacy, fresh, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The m-processor path: StageServer at m = 1..4 against the frozen
// pre-merge pool executor (tests/legacy_pooled_stage_server.h). Pools are
// lock-free, so the scripts are make_script's with the critical sections
// dropped; deadlines sit on an integer grid so EDF ties (FIFO tie-break)
// are common.

Script make_lock_free_script(std::uint64_t seed) {
  Script s = make_script(seed);
  for (auto& job : s.jobs) {
    for (auto& seg : job.segments) seg.lock = kNoLock;
  }
  return s;
}

struct PoolObserved {
  Timeline timeline;
  std::vector<std::uint64_t> completion_ids;
  std::vector<Time> completion_times;
  std::vector<Time> idle_times;
  std::uint64_t preemptions = 0;
  std::vector<Duration> busy_times;  // per processor
  double utilization = 0;
  Time finished_at = kTimeZero;
};

template <typename Server>
PoolObserved run_pool_script(const Script& s, std::size_t m,
                             const SchedulingPolicy& policy) {
  sim::Simulator sim;
  PoolObserved out;
  const auto on_complete = [&](Job& j) {
    out.completion_ids.push_back(j.id);
    out.completion_times.push_back(sim.now());
  };
  const auto on_idle = [&] { out.idle_times.push_back(sim.now()); };
  frap::testing::CallbackListener listener(on_complete, on_idle);
  std::unique_ptr<Server> server;
  if constexpr (std::is_same_v<Server, LegacyPooledStageServer>) {
    server = std::make_unique<Server>(sim, m, "diff", policy);
    server->set_on_complete(on_complete);
    server->set_on_idle(on_idle);
  } else {
    server = std::make_unique<Server>(sim, "diff", policy, m);
    server->set_listener(&listener);
  }
  server->set_timeline(&out.timeline);

  std::vector<std::unique_ptr<Job>> jobs;
  jobs.reserve(s.jobs.size());
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    jobs.push_back(std::make_unique<Job>(static_cast<std::uint64_t>(i + 1),
                                         s.jobs[i].priority,
                                         s.jobs[i].segments));
    Job* job = jobs.back().get();
    job->absolute_deadline =
        std::ceil(s.jobs[i].submit_at) + 5.0 * s.jobs[i].priority;
    Server* srv = server.get();
    sim.at(s.jobs[i].submit_at, [srv, job] { srv->submit(*job); });
  }
  if (s.has_abort) {
    Job* victim = jobs[s.abort_index].get();
    Server* srv = server.get();
    sim.at(s.abort_at, [srv, victim] { srv->abort(*victim); });
  }
  if (s.has_speed_change) {
    Server* srv = server.get();
    sim.at(s.speed_change_at, [srv, &s] { srv->set_speed(s.new_speed); });
  }
  sim.run();
  out.preemptions = server->preemptions();
  out.finished_at = sim.now();
  for (std::size_t p = 0; p < m; ++p) {
    out.busy_times.push_back(
        server->meter(p).busy_time(kTimeZero, out.finished_at + 1.0));
  }
  if constexpr (std::is_same_v<Server, LegacyPooledStageServer>) {
    out.utilization = server->pool_utilization(kTimeZero, out.finished_at + 1.0);
  } else {
    out.utilization = server->utilization(kTimeZero, out.finished_at + 1.0);
  }
  return out;
}

void expect_identical(const PoolObserved& legacy, const PoolObserved& fresh,
                      const std::string& where) {
  ASSERT_EQ(legacy.timeline.size(), fresh.timeline.size()) << where;
  for (std::size_t i = 0; i < legacy.timeline.size(); ++i) {
    const RunInterval& a = legacy.timeline[i];
    const RunInterval& b = fresh.timeline[i];
    EXPECT_EQ(a.job_id, b.job_id) << where << " interval " << i;
    EXPECT_EQ(a.start, b.start) << where << " interval " << i;
    EXPECT_EQ(a.end, b.end) << where << " interval " << i;
    EXPECT_EQ(a.segment, b.segment) << where << " interval " << i;
  }
  EXPECT_EQ(legacy.completion_ids, fresh.completion_ids) << where;
  EXPECT_EQ(legacy.completion_times, fresh.completion_times) << where;
  EXPECT_EQ(legacy.idle_times, fresh.idle_times) << where;
  EXPECT_EQ(legacy.preemptions, fresh.preemptions) << where;
  EXPECT_EQ(legacy.busy_times, fresh.busy_times) << where;
  EXPECT_EQ(legacy.utilization, fresh.utilization) << where;
  EXPECT_EQ(legacy.finished_at, fresh.finished_at) << where;
}

TEST(PolicyDifferentialTest, PoolBitIdenticalToLegacyPoolOver1kSeeds) {
  const SchedulingPolicy* policies[] = {&fixed_priority_policy(),
                                        &edf_policy(), &llf_policy()};
  std::uint64_t preemptions = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const Script s = make_lock_free_script(seed);
    for (std::size_t m = 1; m <= 4; ++m) {
      for (const SchedulingPolicy* policy : policies) {
        const std::string where = "seed " + std::to_string(seed) + " m " +
                                  std::to_string(m) + " " +
                                  std::string(policy->name());
        const PoolObserved legacy =
            run_pool_script<LegacyPooledStageServer>(s, m, *policy);
        const PoolObserved fresh = run_pool_script<StageServer>(s, m, *policy);
        expect_identical(legacy, fresh, where);
        if (::testing::Test::HasFailure()) return;
        preemptions += fresh.preemptions;
      }
    }
  }
  // The scripts must exercise preemption, not just run jobs to completion.
  EXPECT_GT(preemptions, 1000u);
}

}  // namespace
}  // namespace frap::sched
