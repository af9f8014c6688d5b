// The unified admission interface.
//
// Every admission strategy in the repo — the paper's exact test
// (core::AdmissionController), batch, shedding and graph admission, and the
// sharded concurrent service (service::ShardedAdmissionService) — implements
// this one-method interface with the canonical signature
//
//   [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now)
//
// where `now` is the task's arrival instant: the implementation anchors the
// admitted task's absolute deadline at now + spec.deadline and fills the
// decision's arrival/decided_at fields from it. There are no
// one-argument overloads: every caller names the arrival instant.
//
// Header-only on purpose: the interface lives in src/service/ but depends
// only on the core vocabulary types, so src/core can implement it without
// a link dependency on the service library.
#pragma once

#include "core/admission_decision.h"
#include "core/task.h"
#include "util/time.h"

namespace frap {

class Admitter {
 public:
  virtual ~Admitter() = default;

  // Decides the task presented at arrival instant `now`. Admitted tasks are
  // committed with expiry at now + spec.deadline; the decision records the
  // evaluated LHS pair and the bound it was tested against.
  [[nodiscard]] virtual core::AdmissionDecision try_admit(
      const core::TaskSpec& spec, Time now) = 0;

 protected:
  Admitter() = default;
  Admitter(const Admitter&) = default;
  Admitter& operator=(const Admitter&) = default;
};

}  // namespace frap
