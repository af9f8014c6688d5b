// Pluggable scheduling policies for stage executors.
//
// The paper's Thm 1 feasible region is derived for *fixed-priority* stage
// servers, but the executor need not be: a SchedulingPolicy computes a job's
// dispatch key from (job, remaining work, now), declares whether keys are
// static (fixed-priority: assigned once at submit) or dynamic (EDF/LLF:
// re-evaluated at every dispatch event), and names itself for config and
// observability. StageServer dispatches through the policy at any
// processor count; the fixed-priority default reproduces the pre-redesign
// behavior bit-identically (pinned by tests/policy_differential_test).
//
// Dynamic policies are *event-driven*: keys are re-evaluated at scheduling
// events only (submit, segment completion, abort, speed change), which is
// the standard discrete-event approximation of LLF — a waiting job whose
// laxity crosses the running job's between events preempts at the next
// event, not at the crossing instant. EDF keys are constant per job (the
// absolute deadline), so for EDF the approximation is exact.
//
// Only the fixed-priority policy supports PCP critical sections: priority
// ceilings are defined over static task priorities, so executors reject
// locked segments under any dynamic policy.
#pragma once

#include <string_view>

#include "sched/job.h"
#include "util/time.h"

namespace frap::sched {

// Whether dispatch keys survive from submit (static) or must be recomputed
// at each dispatch event (dynamic). "Static" here means fixed per *task*
// across all of its jobs — the paper's fixed-priority assumption; EDF keys
// are fixed per job but differ across jobs of one task, so EDF declares
// dynamic and is simply re-evaluated to the same value.
enum class KeyMode { kStatic, kDynamic };

// Read-only view of one active job at key-computation time. remaining_work
// is the job's outstanding execution demand on this stage (current segment's
// effective remainder — in-progress execution already banked — plus all
// later segments), in execution-time units.
struct JobView {
  const Job* job;
  Duration remaining_work;
};

// A scheduling policy is stateless and shared: one singleton instance may
// serve any number of executors concurrently-in-simulation. Smaller key
// value = more urgent; the executor pairs the value with a submit-order
// sequence number, so FIFO tie-breaking is uniform across policies and
// simulations stay deterministic.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  // Stable identifier used by config / CLI / bench labels ("fixed", "edf",
  // "llf").
  virtual std::string_view name() const = 0;

  virtual KeyMode key_mode() const = 0;

  // Dispatch-key value for `view` at simulated time `now`; smaller is more
  // urgent.
  virtual double dispatch_key(const JobView& view, Time now) const = 0;

  // True when the policy is compatible with PCP critical sections (static
  // task priorities). Executors reject locked segments otherwise.
  virtual bool supports_locks() const { return false; }
};

// Fixed-priority (the default): key = the job's static priority_value. With
// deadline-monotonic assignment this is the paper's canonical policy; Thm 1
// admission applies directly. Supports PCP locks.
const SchedulingPolicy& fixed_priority_policy();

// Earliest-deadline-first: key = the job's absolute deadline. Jobs must
// carry Job::absolute_deadline (set by the runtime at release time).
const SchedulingPolicy& edf_policy();

// Least-laxity-first: key = absolute_deadline - now - remaining_work
// (laxity in wall-time units, assuming unit stage speed). Re-evaluated at
// every dispatch event (see the event-driven note above).
const SchedulingPolicy& llf_policy();

}  // namespace frap::sched
