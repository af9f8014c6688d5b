// End-to-end execution of admitted tasks: pipelines (Sec. 2) and task
// graphs (Sec. 3.3) through one runtime.
//
// The runtime owns one StageServer per stage (resource) and moves each task
// through them under precedence: a node is submitted to its stage's server
// once all its predecessors have finished, and the task completes when its
// last node does (its end-to-end delay is then the realized critical path).
// A pipeline is the chain case — node j runs on stage j and its one
// successor is j + 1 — so the departure from stage j is the arrival at
// stage j + 1, exactly the model of Sec. 2.
//
// It also feeds the synthetic-utilization tracker the two runtime signals
// the admission scheme needs — departures and stage-idle transitions — and
// records end-to-end response times and deadline misses. A task departs
// stage k once its last node on k completes (for a pipeline: every stage
// completion). Lifecycle output is the completion callback, aborted(), and
// the optional per-stage StageObserver (queue depth, sojourn histogram and
// max sojourn — for a pipeline the Theorem 1 residence L_j).
//
// Task start and stage completion allocate nothing in steady state. Each
// in-flight task lives in a recycled slot (an Exec record found through a
// task-id -> slot map); a finished or aborted task's slot goes on a free
// list, and the next task reuses its vectors' capacity. A node's job
// borrows its segments from the Exec's spec copy (a pipeline stage's plain
// demand lends one lock-free segment held inline in the node; a graph
// spec's demands hold every node's segments materialized), and the stage
// servers schedule segment completions as typed timers.
//
// The class is a template over the spec type; only the topology reads
// (node count, node -> stage, successors, indegrees, node segments) depend
// on it:
//   * core::TaskSpec — read in place from the stage list;
//   * core::GraphTaskSpec — canonical specs only
//     (TaskGraphShapeRegistry::canonicalize): the topology is read from
//     the shape's CSR and the segments from the spec's demands.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "core/task_graph.h"
#include "metrics/counters.h"
#include "obs/stage_observer.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"
#include "util/id_map.h"

namespace frap::pipeline {

// Maps a task to its fixed priority value (smaller = more urgent). Must not
// depend on arrival time (fixed-priority assumption of the paper). Only
// consulted by fixed-priority scheduling; dynamic policies (EDF/LLF) derive
// dispatch keys from the job's absolute deadline instead.
using PriorityPolicy = std::function<sched::PriorityValue(const core::TaskSpec&)>;

// Deadline-monotonic: priority value = relative deadline (optimal
// fixed-priority policy for aperiodic tasks; alpha = 1).
PriorityPolicy deadline_monotonic_policy();

template <typename Spec>
class TaskRuntime : private sched::StageListener {
 public:
  // Priority value used for all of a task's nodes. Default:
  // deadline-monotonic (value = relative deadline).
  using PriorityPolicy = std::function<sched::PriorityValue(const Spec&)>;

  // `tracker` may be null (no admission bookkeeping, e.g. no-admission
  // baselines). If given, it must have num_stages() == `stages`.
  // `policy` selects the dispatch discipline for every stage server
  // (sched/policy.h); jobs carry the task's end-to-end absolute deadline
  // for EDF/LLF. `procs_per_stage` is each StageServer's processor count
  // (> 1: global scheduling over the pool — with edf_policy() this is
  // gEDF).
  TaskRuntime(
      sim::Simulator& sim, std::size_t stages,
      core::SyntheticUtilizationTracker* tracker,
      const sched::SchedulingPolicy& policy = sched::fixed_priority_policy(),
      std::size_t procs_per_stage = 1);

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  std::size_t num_stages() const { return servers_.size(); }
  sched::StageServer& stage(std::size_t j) { return *servers_[j]; }
  const sched::StageServer& stage(std::size_t j) const { return *servers_[j]; }

  // The scheduling policy every stage dispatches through.
  const sched::SchedulingPolicy& scheduling_policy() const {
    return servers_.front()->policy();
  }

  void set_priority_policy(PriorityPolicy policy);

  // Optional per-stage gauges (queue depth, sojourn histograms, max
  // sojourn; see docs/observability.md). Must have num_stages() stages and
  // outlive the runtime; nullptr detaches. Every node release is an
  // enqueue on its stage and every node completion — or abort of a
  // released node — a departure, so queue-depth gauges conserve.
  void set_stage_observer(obs::StageObserver* observer);

  // Callback at task completion: (spec, response_time, missed_deadline).
  using CompletionCallback = std::function<void(const Spec&, Duration, bool)>;
  void set_on_task_complete(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  // Releases an admitted task now: every source node (a pipeline's stage 1)
  // enters its stage. `absolute_deadline` is the miss threshold (arrival +
  // D for immediate admission; still anchored at the original arrival for
  // tasks admitted after waiting).
  void start_task(const Spec& spec, Time absolute_deadline);

  // Aborts a task wherever its nodes currently are (load shedding):
  // running/queued node jobs leave their stages, pending nodes never
  // release. No-op for unknown/completed ids. Does not touch the tracker —
  // the shedding controller removes contributions itself.
  void abort_task(std::uint64_t task_id);

  // True while the task is still executing.
  bool task_in_flight(std::uint64_t task_id) const {
    return slot_of_.find(task_id) != util::IdMap::kNotFound;
  }

  // True once any node of the task has consumed processor time. Shedding a
  // task that already executed is unsound (its past interference is real
  // but its synthetic-utilization contribution would vanish), so shedding
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
  // the whole stage (all its processors) — StageServer::utilization, equal
  // to stage(j).meter().utilization(from, to) at one processor.
  std::vector<double> stage_utilizations(Time from, Time to) const;

  // Allocation-free overload into a caller-owned buffer of exactly
  // num_stages() elements.
  void stage_utilizations(Time from, Time to, std::span<double> out) const;

 private:
  struct Node {
    std::optional<sched::Job> job;  // engaged once released
    // A plain demand's single lock-free segment, lent to the job.
    sched::Segment single;
    Time released = kTimeZero;  // when it entered its stage's queue
    std::uint32_t pending_preds = 0;
  };

  // One in-flight task. Records are recycled through the free list, and a
  // reused one keeps the capacity of its spec copy and vectors.
  struct Exec {
    Spec spec;
    Time release = kTimeZero;
    Time absolute_deadline = kTimeZero;
    sched::PriorityValue priority = 0;
    // The task's nodes are nodes[0, num_nodes); the array only grows, and
    // never while a task is in flight, so released jobs never move.
    std::vector<Node> nodes;
    std::size_t num_nodes = 0;
    std::size_t nodes_remaining = 0;
    std::vector<std::uint32_t> left_on_stage;  // unfinished nodes per stage
  };

  // StageListener: servers report completion/idle with their stage index
  // in the tag (set at construction).
  void on_job_complete(sched::StageServer& stage, sched::Job& job) override;
  void on_stage_idle(sched::StageServer& stage) override;

  void release_node(Exec& exec, std::size_t node);

  // --- topology reads: the only code that depends on Spec ---
  // Precondition check: `spec` is well formed and fits `stages` stages.
  static void expect_valid(const Spec& spec, std::size_t stages);
  static std::size_t node_count(const Spec& spec);
  static std::size_t node_stage(const Exec& exec, std::size_t node);
  // The segments `node`'s job runs, borrowed from the Exec's spec.
  static std::span<const sched::Segment> node_segments(Exec& exec,
                                                       std::size_t node);
  // Sets every node's pending-predecessor count.
  static void init_precedence(Exec& exec);
  // Releases each successor of `node` whose last predecessor it was.
  void release_successors(Exec& exec, std::size_t node);

  sim::Simulator& sim_;
  core::SyntheticUtilizationTracker* tracker_;
  std::vector<std::unique_ptr<sched::StageServer>> servers_;
  PriorityPolicy policy_;
  CompletionCallback on_complete_;
  obs::StageObserver* stage_obs_ = nullptr;

  std::vector<std::unique_ptr<Exec>> slots_;  // never shrinks
  std::vector<std::uint32_t> free_slots_;
  util::IdMap slot_of_;  // in-flight task id -> slot
  std::uint64_t next_job_id_ = 1;  // job ids are unique per runtime

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  metrics::RatioTracker misses_;
  metrics::RunningStats response_;
};

extern template class TaskRuntime<core::TaskSpec>;
extern template class TaskRuntime<core::GraphTaskSpec>;

using PipelineRuntime = TaskRuntime<core::TaskSpec>;
using DagRuntime = TaskRuntime<core::GraphTaskSpec>;

}  // namespace frap::pipeline
