#include "core/baselines.h"

#include <algorithm>

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

DeadlineSplitAdmissionController::DeadlineSplitAdmissionController(
    sim::Simulator& sim, SyntheticUtilizationTracker& tracker)
    : sim_(sim), tracker_(tracker) {
  scratch_add_.resize(tracker_.num_stages());
  scratch_u_.resize(tracker_.num_stages());
}

AdmissionDecision DeadlineSplitAdmissionController::try_admit(
    const TaskSpec& spec, Time now) {
  ++attempts_;
  FRAP_EXPECTS(spec.valid());
  const std::size_t n = tracker_.num_stages();
  FRAP_EXPECTS(spec.num_stages() == n);

  // Intermediate deadline D_i / N per stage: the stage-local contribution is
  // C_ij / (D_i / N). Retained scratch buffers keep the attempt
  // allocation-free.
  std::span<double> add{scratch_add_};
  const double nd = static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    add[j] = util::safe_div(spec.stages[j].compute * nd, spec.deadline);
  }

  const double cap = uniprocessor_bound();
  std::span<double> u{scratch_u_};
  tracker_.utilizations(u);

  AdmissionDecision d;
  d.arrival = now;
  d.decided_at = sim_.now();
  // Report the worst per-stage margin consumption through the lhs fields so
  // experiments can log comparable quantities (scaled so that 1.0 = at the
  // bound, like the region controllers).
  d.bound = 1.0;
  double worst_before = 0;
  double worst_after = 0;
  bool ok = true;
  for (std::size_t j = 0; j < n; ++j) {
    worst_before = std::max(worst_before, u[j] / cap);
    const double after = u[j] + add[j];
    worst_after = std::max(worst_after, after / cap);
    if (after > cap) ok = false;
  }
  d.lhs_before = worst_before;
  d.lhs_with_task = worst_after;
  d.admitted = ok;
  d.reason = ok ? AdmissionDecision::Reason::kAdmitted
                : AdmissionDecision::Reason::kRegionFull;

  if (ok) {
    ++admitted_;
    tracker_.add(spec.id, add, now + spec.deadline);
  }
  return d;
}

}  // namespace frap::core
