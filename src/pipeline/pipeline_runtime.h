// End-to-end execution of admitted pipeline tasks.
//
// The runtime owns one StageServer per stage and moves each task through
// them in order (precedence-constrained chain): the departure from stage j
// is the arrival at stage j+1, exactly the model of Sec. 2. It also feeds
// the synthetic-utilization tracker the two runtime signals the admission
// scheme needs — subtask departures and stage-idle transitions — and
// records end-to-end response times and deadline misses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "metrics/counters.h"
#include "obs/stage_observer.h"
#include "pipeline/trace.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"

namespace frap::pipeline {

// Maps a task to its fixed priority value (smaller = more urgent). Must not
// depend on arrival time (fixed-priority assumption of the paper). Only
// consulted by fixed-priority scheduling; dynamic policies (EDF/LLF) derive
// dispatch keys from the job's absolute deadline instead.
using PriorityPolicy = std::function<sched::PriorityValue(const core::TaskSpec&)>;

// Deadline-monotonic: priority value = relative deadline (optimal
// fixed-priority policy for aperiodic tasks; alpha = 1).
PriorityPolicy deadline_monotonic_policy();

class PipelineRuntime : private sched::StageListener {
 public:
  // `tracker` may be null (no admission bookkeeping, e.g. no-admission
  // baselines). If given, it must have num_stages() == `stages`.
  // `policy` selects the dispatch discipline for every stage executor
  // (sched/policy.h); `procs_per_stage` is each StageServer's processor
  // count (> 1: global scheduling over the pool — with edf_policy() this
  // is gEDF).
  PipelineRuntime(
      sim::Simulator& sim, std::size_t stages,
      core::SyntheticUtilizationTracker* tracker,
      const sched::SchedulingPolicy& policy = sched::fixed_priority_policy(),
      std::size_t procs_per_stage = 1);

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  std::size_t num_stages() const { return servers_.size(); }
  sched::StageServer& stage(std::size_t j) { return *servers_[j]; }
  const sched::StageServer& stage(std::size_t j) const { return *servers_[j]; }

  // The scheduling policy every stage dispatches through.
  const sched::SchedulingPolicy& scheduling_policy() const {
    return servers_.front()->policy();
  }

  void set_priority_policy(PriorityPolicy policy);

  // Optional lifecycle tracing (Release / StageDeparture / Complete / Shed
  // events). The log must outlive the runtime; pass nullptr to detach.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Optional per-stage gauges (queue depth, sojourn histograms; see
  // docs/observability.md). Must have num_stages() stages and outlive the
  // runtime; nullptr detaches. Aborted tasks depart their current stage so
  // queue-depth gauges conserve.
  void set_stage_observer(obs::StageObserver* observer);

  // Callback at task completion: (spec, response_time, missed_deadline).
  using CompletionCallback =
      std::function<void(const core::TaskSpec&, Duration, bool)>;
  void set_on_task_complete(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  // Releases an admitted task into stage 1 now. `absolute_deadline` is the
  // miss threshold (arrival + D for immediate admission; still anchored at
  // the original arrival for tasks admitted after waiting).
  void start_task(const core::TaskSpec& spec, Time absolute_deadline);

  // Aborts a task wherever it currently is (load shedding). No-op when the
  // task already completed. Does not touch the tracker — the shedding
  // controller removes contributions itself.
  void abort_task(std::uint64_t task_id);

  // True while the task is still executing in the pipeline.
  bool task_in_flight(std::uint64_t task_id) const {
    return execs_.find(task_id) != execs_.end();
  }

  // True once the task has consumed ANY processor time. Shedding a task
  // that already executed is unsound (its past interference is real but
  // its synthetic-utilization contribution would vanish), so shedding
  // filters use this predicate. Unknown/completed tasks report true
  // (conservative: not sheddable).
  bool task_started_executing(std::uint64_t task_id) const;

  // --- statistics ---
  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t aborted() const { return aborted_; }
  const metrics::RatioTracker& misses() const { return misses_; }
  const metrics::RunningStats& response_times() const { return response_; }

  // Real utilization of each stage over [from, to]: the busy fraction of
  // the whole stage (all its processors) — StageServer::utilization.
  std::vector<double> stage_utilizations(Time from, Time to) const;

  // Allocation-free overload into a caller-owned buffer of exactly
  // num_stages() elements.
  void stage_utilizations(Time from, Time to, std::span<double> out) const;

 private:
  struct Exec {
    core::TaskSpec spec;
    Time release = kTimeZero;
    Time absolute_deadline = kTimeZero;
    sched::PriorityValue priority = 0;
    std::size_t current_stage = 0;
    Time stage_enter = kTimeZero;  // when it entered current_stage's queue
    std::unique_ptr<sched::Job> job;  // job on the current stage
  };

  // StageListener: servers report completion/idle with their stage index
  // in the tag (set at construction).
  void on_job_complete(sched::StageServer& stage, sched::Job& job) override;
  void on_stage_idle(sched::StageServer& stage) override;

  void on_stage_complete(std::size_t stage, sched::Job& job);
  void submit_to_stage(Exec& exec, std::size_t stage);

  sim::Simulator& sim_;
  core::SyntheticUtilizationTracker* tracker_;
  std::vector<std::unique_ptr<sched::StageServer>> servers_;
  PriorityPolicy policy_;
  CompletionCallback on_complete_;
  TraceLog* trace_ = nullptr;
  obs::StageObserver* stage_obs_ = nullptr;

  // Job ids are globally unique per runtime; map back to the owning task.
  std::unordered_map<std::uint64_t, std::uint64_t> job_to_task_;
  std::unordered_map<std::uint64_t, Exec> execs_;  // by task id
  std::uint64_t next_job_id_ = 1;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  metrics::RatioTracker misses_;
  metrics::RunningStats response_;
};

}  // namespace frap::pipeline
