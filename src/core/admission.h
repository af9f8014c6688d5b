// Admission control against the feasible region (Sec. 4 and Sec. 5).
//
// Every controller here is a plain concrete class. The pipeline controllers
// share the canonical entry point
//
//   [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now)
//
// where `now` is the task's arrival instant: an admitted task's contribution
// is committed with expiry at now + spec.deadline, and the decision records
// the evaluated LHS pair, the bound, and a machine-readable Reason
// (core/admission_decision.h). The graph controller takes a GraphTaskSpec
// instead; docs/admission_service.md lists every entry point.
//
// The base controller implements the paper's admission test: tentatively add
// the arriving task's per-stage contributions to the tracked synthetic
// utilizations and admit iff the result stays inside the feasible region.
// Costs are independent of how many tasks are in the system — the paper's
// headline complexity claim, exercised by bench/micro_admission.
//
// The default path is incremental and allocation-free: the tracker keeps
// f(U_j) per stage plus the running LHS scalar, so a task touching k stages
// is tested against cached_lhs + sum of k deltas in O(k), without snapshot
// vectors and without evaluating untouched stages (docs/incremental_lhs.md).
// The original full O(N)-with-snapshots evaluation lives in the test
// support library (tests/support/reference_admitter.h), used by the A/B
// identity tests and bench/micro_admission only.
//
// Variants layered on top:
//   * approximate admission (Sec. 4.4): the test uses per-stage MEAN
//     computation times instead of the task's actual ones (the actual values
//     still execute), modelling operators who only know averages;
//   * waiting admission (Sec. 5): a rejected task may wait a bounded
//     patience for the region to drain (it retries on utilization
//     decreases) before being finally rejected;
//   * shedding admission (Sec. 5): when an important task does not fit,
//     less important admitted tasks are shed (their contributions removed
//     and their execution aborted) in increasing order of importance until
//     the newcomer fits;
//   * graph admission (Thm 2): the region is evaluated per task over its
//     DAG's critical path instead of the pipeline sum.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "core/task_graph.h"
#include "obs/decision_sink.h"
#include "sim/simulator.h"

namespace frap::core {

class AdmissionController {
 public:
  AdmissionController(sim::Simulator& sim,
                      SyntheticUtilizationTracker& tracker,
                      FeasibleRegion region);

  // Switches to approximate admission: contributions are computed as
  // mean_compute[j] / D_i instead of C_ij / D_i.
  void set_approximate_means(std::vector<Duration> mean_compute);
  // The per-stage means in use; empty = exact admission.
  const std::vector<Duration>& approximate_means() const {
    return mean_compute_;
  }
  [[nodiscard]] bool approximate() const { return !mean_compute_.empty(); }

  // Canonical admission: tests the task arriving at `now`; on
  // admission its contribution is committed with expiry at
  // now + spec.deadline (which must not precede the simulation clock).
  // Incremental fast path: O(stages the task touches), no heap allocation
  // on the test (the commit of an admitted task still creates its tracker
  // record).
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now);

  // Would the task be admitted right now? No state change. Shares the exact
  // LHS computation and the region's admits() predicate with try_admit(), so
  // the two can never disagree — including on boundary ties.
  [[nodiscard]] bool test(const TaskSpec& spec) const;

  const FeasibleRegion& region() const { return region_; }
  SyntheticUtilizationTracker& tracker() { return tracker_; }
  Time now() const { return sim_.now(); }

  // Optional decision tracing (docs/observability.md); the sink must
  // outlive the controller. Tracing is passive: it NEVER changes a decision
  // (tests/obs_trace_test.cpp proves bit-identical decisions on/off), and a
  // null sink costs one predictable branch on the hot path.
  void set_sink(obs::DecisionSink* sink) { sink_ = sink; }
  [[nodiscard]] obs::DecisionSink* sink() const { return sink_; }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }
  double acceptance_ratio() const {
    return attempts_ == 0
               ? 0.0
               : static_cast<double>(admitted_) /
                     static_cast<double>(attempts_);
  }

 private:
  // Per-stage contribution of the task (exact C_ij/D_i or mean_j/D_i), as
  // committed: unscaled. Tests multiply it by the tracker's view scale
  // (docs/admission_service.md).
  double contribution(const TaskSpec& spec, std::size_t j,
                      double inv_deadline) const {
    return (mean_compute_.empty() ? spec.stages[j].compute
                                  : mean_compute_[j]) *
           inv_deadline;
  }

  // LHS including the task, computed incrementally from the tracker's
  // cached per-stage f-terms; allocation-free, O(touched stages). When
  // touched_out is non-null it receives the touched-stage count (c_j > 0),
  // piggybacked on the loop this evaluation already runs so an attached
  // DecisionSink never pays a second pass over the stages.
  double incremental_lhs_with(const TaskSpec& spec, double lhs_before,
                              std::uint16_t* touched_out = nullptr) const;

  // Commits an admitted task's contributions via the reusable scratch
  // buffer (no per-call allocation beyond the tracker's task record).
  void commit(const TaskSpec& spec, Time absolute_deadline);

  sim::Simulator& sim_;
  SyntheticUtilizationTracker& tracker_;
  FeasibleRegion region_;
  std::vector<Duration> mean_compute_;  // empty = exact admission
  std::vector<double> scratch_;         // reused contribution buffer
  // Reused sparse (stage, value) pair buffers for commit(); sized to
  // num_stages() up front so the hot path never grows them.
  std::vector<std::uint32_t> commit_stages_;
  std::vector<double> commit_values_;
  obs::DecisionSink* sink_ = nullptr;
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
};

// Decides a burst of arrivals released at the same instant (replay / bursty
// workloads). Each spec is decided in order by the inner controller's
// try_admit at the current simulation time, so every decision, counter and
// sink record is exactly what sequential single admissions would produce;
// the burst only reuses one decision buffer.
class BatchAdmissionController {
 public:
  explicit BatchAdmissionController(AdmissionController& inner)
      : inner_(inner) {}

  // Decides every spec of the burst at the current instant (each admitted
  // task expires at now + its own deadline). Returns one decision per spec,
  // in order. The returned reference points at an internal buffer that is
  // reused by the next call.
  [[nodiscard]] const std::vector<AdmissionDecision>& try_admit_burst(
      std::span<const TaskSpec> specs);

  std::uint64_t bursts() const { return bursts_; }

 private:
  AdmissionController& inner_;
  std::vector<AdmissionDecision> decisions_;
  std::uint64_t bursts_ = 0;
};

// Sec. 5 load shedding: admitted tasks register with their semantic
// importance; when a more important arrival does not fit, victims are shed
// in increasing importance order until it does. The shed callback must
// abort the victim's execution in the runtime (its contributions are
// removed here).
class SheddingAdmissionController {
 public:
  using ShedCallback = std::function<void(std::uint64_t task_id)>;
  // Returns true when the task may be shed. SOUNDNESS: a task that has
  // already consumed processor time must NOT be shed — its past
  // interference is real while its synthetic-utilization contribution
  // would vanish, which can make later admissions optimistic enough to
  // miss deadlines (observed in tests). Wire this to
  // PipelineRuntime::task_started_executing (negated). Without a filter
  // every victim is fair game (the paper's unrestricted formulation).
  using ShedFilter = std::function<bool(std::uint64_t task_id)>;

  SheddingAdmissionController(AdmissionController& inner, ShedCallback shed);

  void set_shed_filter(ShedFilter filter) { filter_ = std::move(filter); }

  // Canonical admission. A task admitted only after shedding is reported
  // with reason == Reason::kShed.
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now);

  std::uint64_t tasks_shed() const { return tasks_shed_; }

  // Entries in the importance index: at most 2 * tracker().live_tasks() + 64
  // after every admission.
  std::size_t importance_index_size() const {
    return admitted_by_importance_.size();
  }

 private:
  // Drops entries of tasks that are no longer live once they outnumber the
  // live ones.
  void prune_importance_index();

  AdmissionController& inner_;
  ShedCallback shed_;
  ShedFilter filter_;
  // importance -> live task ids at that importance (multimap: FIFO within
  // one importance level).
  std::multimap<double, std::uint64_t> admitted_by_importance_;
  std::uint64_t tasks_shed_ = 0;
};

// Theorem 2: admission for DAG-structured tasks. The region is evaluated
// per task over every path of its graph, by one LongPathEvaluator
// (docs/dag_bounds.md) in either weight mode:
//   * ratio_one(num_resources, alpha, beta) — Theorem 2's critical-path
//     test, weights f(U_k)/alpha + β_k;
//   * the deadline-ceiling constructor — the long-path bound, weights
//     f(U_k)·D̂_k/D_n + β_k.
// Specs must be canonical (TaskGraphShapeRegistry::canonicalize): an
// attempt costs O(touched resources + cached profile entries) unless the
// evaluator's last tier, the exact DP, runs, and the commit is sparse and
// allocation-free.
class GraphAdmissionController {
 public:
  GraphAdmissionController(sim::Simulator& sim,
                           SyntheticUtilizationTracker& tracker,
                           LongPathEvaluator evaluator);

  [[nodiscard]] AdmissionDecision try_admit(const GraphTaskSpec& spec,
                                            Time now);

  LongPathEvaluator* long_path_evaluator() { return &evaluator_; }

  SyntheticUtilizationTracker& tracker() { return tracker_; }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }

  // Optional decision tracing; same passivity contract as
  // AdmissionController::set_sink.
  void set_sink(obs::DecisionSink* sink) { sink_ = sink; }

 private:
  sim::Simulator& sim_;
  SyntheticUtilizationTracker& tracker_;
  LongPathEvaluator evaluator_;
  // Reused sparse (stage, value) buffers for the commit; reserved to
  // num_stages() up front so the hot path never grows them.
  std::vector<std::uint32_t> commit_stages_;
  std::vector<double> commit_values_;
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
  obs::DecisionSink* sink_ = nullptr;
};

// Sec. 5 waiting behaviour: an arrival that does not fit immediately is
// parked for up to `patience`; utilization decreases retry the queue in FIFO
// order, and a timeout that promotes a new front waiter retries it at once.
// The absolute deadline stays anchored at the original arrival time, so
// waiting consumes the task's own slack.
class WaitingAdmissionController {
 public:
  // Decision callback: receives the full decision. decision.arrival is the
  // task's original arrival (its deadline stays anchored there) and
  // decision.decided_at the simulation instant of the decision (arrival +
  // waiting). A task that waits out its patience is reported with
  // reason == Reason::kTimedOut and the LHS pair of its last failed test.
  using DecisionCallback =
      std::function<void(const TaskSpec&, const AdmissionDecision&)>;

  WaitingAdmissionController(sim::Simulator& sim, AdmissionController& inner,
                             Duration patience);
  // Pending timeouts and the tracker's decrease hook capture `this`.
  WaitingAdmissionController(const WaitingAdmissionController&) = delete;
  WaitingAdmissionController& operator=(const WaitingAdmissionController&) =
      delete;

  // Call once; the controller hooks the tracker's decrease notifications.
  // Any previously installed on-decrease callback is replaced.
  void attach();

  void set_decision_callback(DecisionCallback cb) { decide_ = std::move(cb); }

  // Submits an arrival at the current time. May decide synchronously (fits
  // now, or patience == 0) or later.
  void submit(const TaskSpec& spec);

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t timed_out() const { return timed_out_; }

  // Times a decrease arrived while a retry scan was already running and the
  // scan was re-armed to run again (observability for the cascade case).
  std::uint64_t rearmed_retries() const { return rearmed_retries_; }

 private:
  struct Pending {
    TaskSpec spec;
    Time arrival;
    AdmissionDecision last_test;  // most recent failed admission attempt
    sim::EventId timeout_event;
  };

  void retry();
  void timeout(std::uint64_t task_id);
  void decide(const Pending& p, const AdmissionDecision& d);
  AdmissionDecision timed_out_decision(const Pending& p) const;

  sim::Simulator& sim_;
  AdmissionController& inner_;
  Duration patience_;
  std::deque<Pending> queue_;
  DecisionCallback decide_;
  std::uint64_t timed_out_ = 0;
  bool retrying_ = false;
  bool rearm_ = false;  // decrease observed mid-retry: scan again
  std::uint64_t rearmed_retries_ = 0;
};

}  // namespace frap::core
