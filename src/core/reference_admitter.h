// TEST-ONLY reference admission path.
//
// ReferenceAdmitter wraps an AdmissionController and decides tasks with the
// original full O(N) evaluation: materialize the contribution vector, copy
// the utilization snapshot, evaluate the whole-region LHS twice. It shares
// the wrapped controller's tracker, region, and counters, so its
// decisions and side effects are interchangeable with the incremental fast
// path — which is exactly why it exists: the A/B identity tests
// (tests/admission_fastpath_test.cpp, tests/sharded_admission_test.cpp) and
// bench/micro_admission drive both paths against the same state and assert
// they never disagree.
//
// It is NOT part of the production API: production callers use the
// Admitter interface (src/service/admitter.h); nothing in src/ outside of
// this pair of files may depend on it.
#pragma once

#include "core/admission.h"
#include "service/admitter.h"

namespace frap::testing {

class ReferenceAdmitter : public Admitter {
 public:
  explicit ReferenceAdmitter(core::AdmissionController& inner)
      : inner_(inner) {}

  // Full-evaluation twin of inner.try_admit(spec, now): same decision, same
  // commit, same counters.
  [[nodiscard]] core::AdmissionDecision try_admit(const core::TaskSpec& spec,
                                                  Time now) override;

  core::AdmissionController& inner() { return inner_; }

 private:
  core::AdmissionController& inner_;
};

}  // namespace frap::testing
