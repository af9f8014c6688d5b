// Test-support reference admission path.
//
// ReferenceAdmitter decides tasks against an AdmissionController's tracker
// and region with the original full O(N) evaluation: materialize the
// contribution vector, copy the utilization snapshot, evaluate the
// whole-region LHS twice. It reads the controller only through its public
// API (tracker, region, approximate means, clock) and commits admitted tasks
// to the same tracker, so its decisions and side effects are interchangeable
// with the incremental fast path — which is exactly why it exists: the A/B
// identity tests (tests/admission_fastpath_test.cpp,
// tests/sharded_admission_test.cpp) and bench/micro_admission drive both
// paths against the same state and assert they never disagree. It keeps its
// own attempt/admit counters; the A/B tests compare them with the fast
// path's.
#pragma once

#include <cstdint>

#include "core/admission.h"

namespace frap::testing {

class ReferenceAdmitter {
 public:
  explicit ReferenceAdmitter(core::AdmissionController& inner)
      : inner_(inner) {}

  // Full-evaluation twin of inner.try_admit(spec, now): same decision and
  // same commit.
  [[nodiscard]] core::AdmissionDecision try_admit(const core::TaskSpec& spec,
                                                  Time now);

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }

 private:
  core::AdmissionController& inner_;
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
};

}  // namespace frap::testing
