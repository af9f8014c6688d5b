#include "support/reference_admitter.h"

#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/math.h"

namespace frap::testing {

core::AdmissionDecision ReferenceAdmitter::try_admit(
    const core::TaskSpec& spec, Time now) {
  const core::FeasibleRegion& region = inner_.region();
  core::SyntheticUtilizationTracker& tracker = inner_.tracker();
  FRAP_EXPECTS(spec.valid());
  FRAP_EXPECTS(spec.num_stages() == region.num_stages());
  ++attempts_;

  const std::vector<Duration>& means = inner_.approximate_means();
  std::vector<double> add;
  if (means.empty()) {
    add = spec.contributions();
  } else {
    add.reserve(means.size());
    for (Duration m : means) add.push_back(util::safe_div(m, spec.deadline));
  }
  auto u = tracker.utilizations();

  core::AdmissionDecision d;
  d.arrival = now;
  d.decided_at = inner_.now();
  d.bound = region.bound();
  d.lhs_before = region.lhs(u);
  const double scale = tracker.view_scale();
  for (std::size_t j = 0; j < u.size(); ++j) u[j] += add[j] * scale;
  d.lhs_with_task = region.lhs(u);
  d.admitted = region.admits(d.lhs_with_task);
  d.reason = d.admitted
                 ? core::AdmissionDecision::Reason::kAdmitted
                 : (std::isinf(d.lhs_with_task)
                        ? core::AdmissionDecision::Reason::kStageSaturated
                        : core::AdmissionDecision::Reason::kRegionFull);

  if (d.admitted) {
    ++admitted_;
    tracker.add(spec.id, add, now + spec.deadline);
  }
  return d;
}

}  // namespace frap::testing
