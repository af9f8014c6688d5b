#include "core/reference_admitter.h"

#include <cmath>

namespace frap::testing {

core::AdmissionDecision ReferenceAdmitter::try_admit(
    const core::TaskSpec& spec, Time now) {
  core::AdmissionController& c = inner_;
  ++c.attempts_;
  const auto add = c.contributions_for(spec);
  auto u = c.tracker_.utilizations();

  core::AdmissionDecision d;
  d.arrival = now;
  d.decided_at = c.sim_.now();
  d.bound = c.region_.bound();
  d.lhs_before = c.region_.lhs(u);
  const double scale = c.tracker_.view_scale();
  for (std::size_t j = 0; j < u.size(); ++j) u[j] += add[j] * scale;
  d.lhs_with_task = c.region_.lhs(u);
  d.admitted = c.region_.admits(d.lhs_with_task);
  d.reason = d.admitted
                 ? core::AdmissionDecision::Reason::kAdmitted
                 : (std::isinf(d.lhs_with_task)
                        ? core::AdmissionDecision::Reason::kStageSaturated
                        : core::AdmissionDecision::Reason::kRegionFull);

  if (d.admitted) {
    ++c.admitted_;
    c.tracker_.add(spec.id, add, now + spec.deadline);
  }
  return d;
}

}  // namespace frap::testing
