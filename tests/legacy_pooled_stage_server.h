// Test-only reference: a frozen copy of the m-processor pool executor as it
// stood before the pool and the uniprocessor server became one StageServer
// (verbatim dispatch, completion, abort and speed logic, with the former
// shared base's submit prologue, key refresh and active-set bookkeeping
// inlined, and std::function callbacks in place of the typed listener).
// The differential tests drive it and StageServer with identical scripts
// and compare every observable bit for bit. Do not "improve" this code: its
// value is that it never changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/utilization_meter.h"
#include "sched/job.h"
#include "sched/policy.h"
#include "sched/timeline.h"
#include "sim/simulator.h"

namespace frap::sched {

class LegacyPooledStageServer {
 public:
  LegacyPooledStageServer(
      sim::Simulator& sim, std::size_t num_processors, std::string name = {},
      const SchedulingPolicy& policy = fixed_priority_policy())
      : sim_(sim),
        name_(std::move(name)),
        policy_(&policy),
        procs_(num_processors) {}

  LegacyPooledStageServer(const LegacyPooledStageServer&) = delete;
  LegacyPooledStageServer& operator=(const LegacyPooledStageServer&) = delete;

  void set_on_complete(std::function<void(Job&)> cb) {
    on_complete_ = std::move(cb);
  }
  void set_on_idle(std::function<void()> cb) { on_idle_ = std::move(cb); }

  std::size_t num_processors() const { return procs_.size(); }
  bool idle() const { return active_.empty(); }
  std::uint64_t preemptions() const { return preemptions_; }
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }
  const metrics::UtilizationMeter& meter(std::size_t processor) const {
    return procs_[processor].meter;
  }

  void submit(Job& job) {
    job.on_server = true;
    job.segment_index = 0;
    job.remaining = job.segments[0].length;
    job.held_lock = kNoLock;
    job.key = PriorityKey{
        policy_->dispatch_key(JobView{&job, job.total_length()}, sim_.now()),
        next_seq_++};
    active_.push_back(&job);
    dispatch();
  }

  void abort(Job& job) {
    if (!job.on_server) return;
    auto it = std::find(active_.begin(), active_.end(), &job);
    if (it == active_.end()) return;
    for (auto& p : procs_) {
      if (p.running == &job) {
        stop_processor(p);
        break;
      }
    }
    remove_active(job);
    dispatch();
    if (idle() && on_idle_) on_idle_();
  }

  void set_speed(double speed) {
    if (speed == speed_) return;
    for (auto& p : procs_) {
      if (p.running != nullptr) stop_processor(p);
    }
    speed_ = speed;
    if (!active_.empty()) dispatch();
  }

  double pool_utilization(Time from, Time to) const {
    Duration busy = 0;
    for (const auto& p : procs_) busy += p.meter.busy_time(from, to);
    return busy / (static_cast<double>(procs_.size()) * (to - from));
  }

 private:
  struct Processor {
    Job* running = nullptr;
    Time started = kTimeZero;
    sim::EventId completion = sim::kInvalidEventId;
    metrics::UtilizationMeter meter;
    bool meter_busy = false;
  };

  void refresh_keys() {
    if (policy_->key_mode() != KeyMode::kDynamic) return;
    const Time now = sim_.now();
    for (Job* job : active_) {
      Duration rem = in_progress_remaining(*job);
      for (std::size_t i = job->segment_index + 1; i < job->segments.size();
           ++i) {
        rem += job->segments[i].length;
      }
      job->key.value = policy_->dispatch_key(JobView{job, rem}, now);
    }
  }

  Duration in_progress_remaining(const Job& job) const {
    for (const auto& p : procs_) {
      if (p.running == &job) {
        const Duration elapsed = (sim_.now() - p.started) * speed_;
        return std::max(0.0, job.remaining - elapsed);
      }
    }
    return job.remaining;
  }

  void stop_processor(Processor& p) {
    const Duration elapsed = (sim_.now() - p.started) * speed_;
    p.running->remaining = std::max(0.0, p.running->remaining - elapsed);
    if (timeline_ != nullptr) {
      timeline_->record(p.running->id, p.started, sim_.now(),
                        p.running->segment_index);
    }
    sim_.cancel(p.completion);
    p.completion = sim::kInvalidEventId;
    p.running = nullptr;
  }

  void dispatch() {
    refresh_keys();
    const std::size_t m = procs_.size();
    std::vector<Job*> desired(active_);
    if (desired.size() > m) {
      std::partial_sort(
          desired.begin(), desired.begin() + static_cast<std::ptrdiff_t>(m),
          desired.end(),
          [](const Job* a, const Job* b) { return a->key < b->key; });
      desired.resize(m);
    }

    auto in_desired = [&](const Job* j) {
      return std::find(desired.begin(), desired.end(), j) != desired.end();
    };

    for (auto& p : procs_) {
      if (p.running != nullptr && !in_desired(p.running)) {
        stop_processor(p);
        ++preemptions_;
      }
    }
    for (Job* j : desired) {
      const bool running = std::any_of(
          procs_.begin(), procs_.end(),
          [&](const Processor& p) { return p.running == j; });
      if (running) continue;
      auto free_proc = std::find_if(
          procs_.begin(), procs_.end(),
          [](const Processor& p) { return p.running == nullptr; });
      free_proc->running = j;
      j->has_started = true;
      free_proc->started = sim_.now();
      const std::size_t index =
          static_cast<std::size_t>(free_proc - procs_.begin());
      free_proc->completion = sim_.after(
          j->remaining / speed_, [this, index] { handle_completion(index); });
    }
    for (auto& p : procs_) {
      if (p.running != nullptr && !p.meter_busy) {
        p.meter.set_busy(sim_.now());
        p.meter_busy = true;
      } else if (p.running == nullptr && p.meter_busy) {
        p.meter.set_idle(sim_.now());
        p.meter_busy = false;
      }
    }
  }

  void handle_completion(std::size_t processor) {
    Processor& p = procs_[processor];
    Job* job = p.running;
    p.completion = sim::kInvalidEventId;
    p.running = nullptr;
    job->remaining = 0;
    if (timeline_ != nullptr) {
      timeline_->record(job->id, p.started, sim_.now(), job->segment_index);
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
  const SchedulingPolicy* policy_;
  std::vector<Processor> procs_;
  std::vector<Job*> active_;
  Timeline* timeline_ = nullptr;
  std::function<void(Job&)> on_complete_;
  std::function<void()> on_idle_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t preemptions_ = 0;
  double speed_ = 1.0;
};

}  // namespace frap::sched
