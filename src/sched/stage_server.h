// One pipeline stage: a pool of m identical processors (m = 1 is the
// paper's single resource per stage) running jobs under a preemptive
// scheduling policy (fixed-priority by default), with optional PCP-managed
// critical sections when m = 1.
//
// The server is fully event-driven on a Simulator: every state change
// (submit, segment completion, lock release, abort, speed change) triggers a
// dispatch that decides who runs and where. At any instant the m most urgent
// active jobs by dispatch key hold the processors, one each (global
// scheduling: work-conserving, migration at preemption points, zero
// migration cost); with edf_policy() and m > 1 this is global EDF.
//
// Under PCP (m = 1 only) the most urgent active job runs unless it is
// blocked on a lock, in which case its blocker runs (priority inheritance) —
// with non-nested stage-local locks the blocker is always runnable, so this
// realizes classic PCP exactly. Critical sections require the fixed-priority
// policy (priority ceilings are defined over static task priorities) and a
// single processor (PCP is a uniprocessor protocol); otherwise jobs must be
// lock-free.
//
// Dispatch is allocation-free end to end. A running job's segment
// completion is a typed simulator timer (the server is its TimerClient and
// the payload is the processor index), so a start builds no closure.
// Completion/idle notification goes through the typed StageListener
// interface: installing a listener stores one raw pointer, and firing it is
// a virtual call with no std::function machinery on the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/utilization_meter.h"
#include "sched/job.h"
#include "sched/pcp.h"
#include "sched/policy.h"
#include "sched/timeline.h"
#include "sim/simulator.h"

namespace frap::sched {

class StageServer;

// Typed completion/idle sink. One listener instance may serve many stages;
// the server identifies itself (and carries an opaque runtime-assigned tag,
// typically the stage index) in every callback.
class StageListener {
 public:
  virtual ~StageListener() = default;

  // The job finished its last segment and is already off the stage, so the
  // listener may resubmit it elsewhere.
  virtual void on_job_complete(StageServer& stage, Job& job) = 0;

  // The stage transitioned to idle (no active jobs). This is the hook the
  // admission controller uses for synthetic-utilization reset.
  virtual void on_stage_idle(StageServer& stage) = 0;
};

class StageServer final : private sim::TimerClient {
 public:
  explicit StageServer(sim::Simulator& sim, std::string name = {},
                       const SchedulingPolicy& policy = fixed_priority_policy(),
                       std::size_t num_processors = 1);

  StageServer(const StageServer&) = delete;
  StageServer& operator=(const StageServer&) = delete;

  // Installs the completion/idle sink (nullptr detaches). The listener must
  // outlive the server. Replaces any previously installed listener.
  void set_listener(StageListener* listener) { listener_ = listener; }

  // Opaque value the owning runtime may attach (typically the stage index)
  // so a shared listener can tell stages apart without a lookup.
  void set_tag(std::size_t tag) { tag_ = tag; }
  std::size_t tag() const { return tag_; }

  // Admits a job to this stage. The job must not already be on a server and
  // must have at least one segment; the caller keeps ownership and must keep
  // the job alive until completion or abort. Jobs with locked segments are
  // accepted only when m = 1 and the policy supports locks.
  void submit(Job& job);

  // Removes a job from the stage (used by load shedding). No-op on jobs not
  // currently on this server.
  void abort(Job& job);

  // True when no job is active (running, ready, or blocked).
  bool idle() const { return active_.empty(); }

  std::size_t active_jobs() const { return active_.size(); }

  // Busy history of one processor.
  const metrics::UtilizationMeter& meter(std::size_t processor = 0) const {
    return procs_[processor].meter;
  }

  // Real utilization of the whole stage over [from, to]: total processor
  // busy time divided by m * (to - from). Requires to > from.
  double utilization(Time from, Time to) const;

  // Number of preemptions performed (a running job was displaced).
  std::uint64_t preemptions() const { return preemptions_; }

  // Optional Gantt recording: every contiguous run interval is reported.
  // The timeline must outlive the server; nullptr detaches.
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }

  // Processor speed factor (> 0, default 1), uniform over the pool: one
  // second of wall time executes `speed` seconds of job demand. Models
  // degraded modes and may change mid-run; running jobs' progress is banked
  // at the old speed.
  // NOTE: the schedulability analysis sees demands in EXECUTION time, so
  // slowing a stage without re-scaling admission inputs voids the guarantee
  // (demonstrated in bench/failure_degradation).
  void set_speed(double speed);
  double speed() const { return speed_; }

  // The scheduling policy this server dispatches through.
  const SchedulingPolicy& policy() const { return *policy_; }

  const std::string& name() const { return name_; }

  // Lock manager, exposed so workloads can pre-register priority ceilings.
  PcpLockManager& locks() { return locks_; }
  const PcpLockManager& locks() const { return locks_; }

 private:
  struct Processor {
    Job* running = nullptr;
    Time started = kTimeZero;
    sim::EventId completion = sim::kInvalidEventId;
    metrics::UtilizationMeter meter;
    bool meter_busy = false;
  };

  // Re-evaluates every active job's key value under a dynamic policy
  // (no-op for static policies), so EDF/LLF decisions see current
  // deadlines/laxities; sequence numbers are preserved, so FIFO
  // tie-breaking is unaffected.
  void refresh_keys();

  // Decides who runs and on which processor: chooses the jobs that should
  // hold a processor now, then preempts, starts and keeps the utilization
  // meters in sync.
  // frap:contract(hotpath)
  void dispatch();

  // Halts the processor's job, banking its elapsed execution. Keeps it
  // active.
  void stop(Processor& p);

  // Segment-completion event of `processor`'s job: a typed timer whose
  // payload is the processor index, so starting a job schedules no closure.
  void on_timer(std::uint64_t processor) override;

  // Effective remaining demand of `job`'s CURRENT segment: banked remainder
  // minus any in-progress execution not yet banked.
  Duration in_progress_remaining(const Job& job) const;

  // Removes `job` from the active set and clears its on_server flag.
  void remove_active(Job& job);

  // frap:contract(hotpath)
  void notify_complete(Job& job);

  // frap:contract(hotpath)
  void notify_idle();

  sim::Simulator& sim_;
  std::string name_;
  const SchedulingPolicy* policy_;
  std::vector<Processor> procs_;
  std::vector<Job*> active_;  // running + ready + blocked
  std::vector<Job*> chosen_;  // dispatch scratch, capacity m
  PcpLockManager locks_;
  StageListener* listener_ = nullptr;
  std::size_t tag_ = 0;
  Timeline* timeline_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t preemptions_ = 0;
  double speed_ = 1.0;
};

}  // namespace frap::sched
