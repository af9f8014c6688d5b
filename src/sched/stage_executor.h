// Common surface and shared machinery of the stage executors.
//
// StageServer (one processor, PCP locks) and PooledStageServer (m
// processors, global scheduling) used to carry two copy-pasted public
// surfaces; StageExecutor is the single interface both implement, and the
// home of the state they duplicated (active set, listener wiring, sequence
// numbers, preemption count, timeline capture, speed factor, policy).
// Runtimes, benches, and examples program against this type and stay
// agnostic of which executor backs a stage.
//
// Completion/idle notification goes through the typed StageListener
// interface so dispatch stays allocation-free end to end: installing a
// listener stores one raw pointer, and firing it is a virtual call with no
// std::function machinery on the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/utilization_meter.h"
#include "sched/job.h"
#include "sched/policy.h"
#include "sched/timeline.h"
#include "sim/simulator.h"

namespace frap::sched {

class StageExecutor;

// Typed completion/idle sink. One listener instance may serve many stages;
// the executor identifies itself (and carries an opaque runtime-assigned
// tag, typically the stage index) in every callback.
class StageListener {
 public:
  virtual ~StageListener() = default;

  // The job finished its last segment and is already off the stage, so the
  // listener may resubmit it elsewhere.
  virtual void on_job_complete(StageExecutor& stage, Job& job) = 0;

  // The stage transitioned to idle (no active jobs). This is the hook the
  // admission controller uses for synthetic-utilization reset.
  virtual void on_stage_idle(StageExecutor& stage) = 0;
};

class StageExecutor {
 public:
  StageExecutor(const StageExecutor&) = delete;
  StageExecutor& operator=(const StageExecutor&) = delete;
  virtual ~StageExecutor();

  // Installs the completion/idle sink (nullptr detaches). The listener must
  // outlive the executor. Replaces any previously installed listener.
  void set_listener(StageListener* listener);

  // Opaque value the owning runtime may attach (typically the stage index)
  // so a shared listener can tell stages apart without a lookup.
  void set_tag(std::size_t tag) { tag_ = tag; }
  std::size_t tag() const { return tag_; }

  // Admits a job to this stage. The job must not already be on a server and
  // must have at least one segment; the caller keeps ownership and must keep
  // the job alive until completion or abort. Executors whose policy does not
  // support locks reject jobs with locked segments.
  virtual void submit(Job& job) = 0;

  // Removes a job from the stage (used by load shedding). No-op on jobs not
  // currently on this executor.
  virtual void abort(Job& job) = 0;

  // True when no job is active (running, ready, or blocked).
  bool idle() const { return active_.empty(); }

  std::size_t active_jobs() const { return active_.size(); }

  // Real utilization measurement (busy fraction of wall time). For pooled
  // executors this is processor 0; see PooledStageServer::pool_utilization
  // for the whole-pool figure.
  virtual const metrics::UtilizationMeter& meter() const = 0;

  // Number of preemptions performed (a running job was displaced).
  std::uint64_t preemptions() const { return preemptions_; }

  // Optional Gantt recording: every contiguous run interval is reported.
  // The timeline must outlive the executor; nullptr detaches.
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }

  // Processor speed factor (> 0, default 1): one second of wall time
  // executes `speed` seconds of job demand. Models degraded modes and may
  // change mid-run; the running job's progress is banked at the old speed.
  // NOTE: the schedulability analysis sees demands in EXECUTION time, so
  // slowing a stage without re-scaling admission inputs voids the guarantee
  // (demonstrated in bench/failure_degradation).
  virtual void set_speed(double speed) = 0;
  double speed() const { return speed_; }

  // The scheduling policy this executor dispatches through.
  const SchedulingPolicy& policy() const { return *policy_; }

  const std::string& name() const { return name_; }

 protected:
  StageExecutor(sim::Simulator& sim, std::string name,
                const SchedulingPolicy& policy);

  // Shared submit prologue: validates the job, initializes its per-stage
  // state, assigns the dispatch key (policy value + FIFO sequence), and adds
  // it to the active set. The caller then dispatches.
  void admit_job(Job& job);

  // Re-evaluates every active job's key value under a dynamic policy
  // (no-op for static policies). Called at the top of dispatch so EDF/LLF
  // decisions see current deadlines/laxities; sequence numbers are
  // preserved, so FIFO tie-breaking is unaffected.
  void refresh_keys();

  // Effective remaining demand of `job`'s CURRENT segment: banked remainder
  // minus any in-progress execution the executor has not yet banked.
  virtual Duration in_progress_remaining(const Job& job) const = 0;

  // frap:contract(hotpath)
  void notify_complete(Job& job);

  // frap:contract(hotpath)
  void notify_idle();

  // Removes `job` from the active set and clears its on_server flag.
  void remove_active(Job& job);

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Job*> active_;  // running + ready + blocked
  Timeline* timeline_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t preemptions_ = 0;
  double speed_ = 1.0;

 private:
  const SchedulingPolicy* policy_;
  StageListener* listener_ = nullptr;
  std::size_t tag_ = 0;
};

}  // namespace frap::sched
