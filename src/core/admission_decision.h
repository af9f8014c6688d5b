// The canonical admission-decision record.
//
// Every admission controller (core/admission.h, core/baselines.h,
// service/sharded_admission.h) returns this struct from its try_admit: the verdict, the machine-readable Reason,
// the evaluated region LHS pair together with the bound it was tested
// against, and the time anchors (arrival = the `now` the caller presented,
// decided_at = the simulation instant the decision was taken; the two differ
// only for waiting admission, where a task may be parked before deciding).
//
// Lives in its own header so the controllers in src/core/ and src/service/
// and the decision sinks in src/obs/ can share it without an include cycle.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace frap::core {

struct AdmissionDecision {
  enum class Reason : std::uint8_t {
    kAdmitted = 0,           // inside the region; contribution committed
    kRegionFull,             // Σ f(U_j) would exceed the bound
    kStageSaturated,         // some U_j would reach 1 (f diverges)
    kShed,                   // admitted after shedding less important tasks
    kTimedOut,               // waited out its patience without fitting
    kQuotaFallback,          // admitted by the sharded service's global path
    kQuotaFallbackRejected,  // rejected even by the global fallback path
    kAtomicFastPath,    // never produced; goes with the next bench change
    kSlowPathFallback,  // never produced; goes with the next bench change
  };

  bool admitted = false;
  Reason reason = Reason::kRegionFull;
  double lhs_before = 0;     // region LHS before the task
  double lhs_with_task = 0;  // region LHS including the task (tested value)
  double bound = 0;          // the bound lhs_with_task was tested against
  Time arrival = kTimeZero;     // caller-presented arrival instant
  Time decided_at = kTimeZero;  // simulation time of the decision
};

constexpr const char* to_string(AdmissionDecision::Reason r) {
  switch (r) {
    case AdmissionDecision::Reason::kAdmitted:
      return "admitted";
    case AdmissionDecision::Reason::kRegionFull:
      return "region-full";
    case AdmissionDecision::Reason::kStageSaturated:
      return "stage-saturated";
    case AdmissionDecision::Reason::kShed:
      return "shed";
    case AdmissionDecision::Reason::kTimedOut:
      return "timed-out";
    case AdmissionDecision::Reason::kQuotaFallback:
      return "quota-fallback";
    case AdmissionDecision::Reason::kQuotaFallbackRejected:
      return "quota-fallback-rejected";
    case AdmissionDecision::Reason::kAtomicFastPath:
      return "atomic-fast-path";
    case AdmissionDecision::Reason::kSlowPathFallback:
      return "slow-path-fallback";
  }
  return "unknown";
}

}  // namespace frap::core
