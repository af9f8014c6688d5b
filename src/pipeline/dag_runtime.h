// End-to-end execution of admitted DAG tasks (Sec. 3.3) over a set of
// independent resources.
//
// A node becomes ready when all its predecessors finish; ready nodes are
// submitted to their resource's stage server. The task completes when every
// node has finished (its end-to-end delay is then the realized critical
// path). Departure signals for the synthetic-utilization tracker fire per
// RESOURCE: a task departs resource k once its last node on k completes,
// generalizing the pipeline's per-stage departure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "metrics/counters.h"
#include "obs/stage_observer.h"
#include "pipeline/trace.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"

namespace frap::pipeline {

class DagRuntime : private sched::StageListener {
 public:
  // `tracker` may be null; when given it must have one stage per resource.
  // `policy` selects the per-resource dispatch discipline (sched/policy.h);
  // node jobs carry the task's end-to-end absolute deadline for EDF/LLF.
  DagRuntime(
      sim::Simulator& sim, std::size_t num_resources,
      core::SyntheticUtilizationTracker* tracker,
      const sched::SchedulingPolicy& policy = sched::fixed_priority_policy());

  DagRuntime(const DagRuntime&) = delete;
  DagRuntime& operator=(const DagRuntime&) = delete;

  std::size_t num_resources() const { return servers_.size(); }
  sched::StageServer& resource(std::size_t k) { return *servers_[k]; }

  using CompletionCallback =
      std::function<void(const core::GraphTaskSpec&, Duration, bool)>;
  void set_on_task_complete(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  // Priority value used for all of a task's nodes (fixed priority). Default:
  // deadline-monotonic (value = relative deadline).
  void set_priority_policy(
      std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy);

  // Optional lifecycle tracing (Release / StageDeparture(resource) /
  // Complete / Shed). The log must outlive the runtime; nullptr detaches.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Optional per-resource gauges (queue depth, node sojourn histograms; one
  // observer "stage" per resource). Must outlive the runtime; nullptr
  // detaches. Every node release is an enqueue on its resource and every
  // node completion (or abort of a released node) a departure.
  void set_stage_observer(obs::StageObserver* observer);

  // Releases an admitted DAG task now; all source nodes enter their
  // resources immediately.
  void start_task(const core::GraphTaskSpec& spec, Time absolute_deadline);

  // Aborts a DAG task wherever its nodes currently are: running/queued
  // node jobs are removed from their resources, pending nodes never
  // release. No-op for unknown/completed ids. Does not touch the tracker
  // (shedding controllers remove contributions themselves).
  void abort_task(std::uint64_t task_id);

  bool task_in_flight(std::uint64_t task_id) const {
    return execs_.find(task_id) != execs_.end();
  }

  // True once any node of the task has consumed processor time (the
  // sound-shedding predicate; unknown/completed ids report true).
  bool task_started_executing(std::uint64_t task_id) const;

  std::uint64_t aborted() const { return aborted_; }

  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  const metrics::RatioTracker& misses() const { return misses_; }
  const metrics::RunningStats& response_times() const { return response_; }

  std::vector<double> resource_utilizations(Time from, Time to) const;

  // Allocation-free overload into a caller-owned buffer of exactly
  // num_resources() elements.
  void resource_utilizations(Time from, Time to, std::span<double> out) const;

 private:
  struct Exec {
    core::GraphTaskSpec spec;
    Time release = kTimeZero;
    Time absolute_deadline = kTimeZero;
    sched::PriorityValue priority = 0;
    std::vector<std::size_t> pending_preds;  // per node
    // Per-node successor lists, built per task ONLY when spec.shape is
    // unset; an interned spec walks its shape's CSR instead.
    std::vector<std::vector<std::size_t>> successors;
    std::vector<std::unique_ptr<sched::Job>> jobs;  // per node
    std::vector<Time> node_release;                 // per node (if released)
    std::vector<std::size_t> nodes_left_on_resource;  // per resource
    std::size_t nodes_remaining = 0;
  };

  // StageListener: resources report completion/idle with their index in the
  // tag (set at construction).
  void on_job_complete(sched::StageServer& stage, sched::Job& job) override;
  void on_stage_idle(sched::StageServer& stage) override;

  void on_node_complete(sched::Job& job);
  void release_node(Exec& exec, std::size_t node);
  // Resource of `node`: read from the shape when the spec is interned.
  static std::size_t node_resource(const Exec& exec, std::size_t node);

  sim::Simulator& sim_;
  core::SyntheticUtilizationTracker* tracker_;
  std::vector<std::unique_ptr<sched::StageServer>> servers_;
  std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy_;
  CompletionCallback on_complete_;
  TraceLog* trace_ = nullptr;
  obs::StageObserver* stage_obs_ = nullptr;

  struct JobContext {
    std::uint64_t task_id;
    std::size_t node;
  };
  std::unordered_map<std::uint64_t, JobContext> job_context_;
  std::unordered_map<std::uint64_t, Exec> execs_;
  std::uint64_t next_job_id_ = 1;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  metrics::RatioTracker misses_;
  metrics::RunningStats response_;
};

}  // namespace frap::pipeline
