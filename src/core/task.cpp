#include "core/task.h"

#include "util/check.h"
#include "util/math.h"

namespace frap::core {

void StageDemand::append_segments(std::vector<sched::Segment>& out) const {
  if (segments.empty()) {
    out.push_back(sched::Segment{compute, sched::kNoLock});
  } else {
    out.insert(out.end(), segments.begin(), segments.end());
  }
}

bool StageDemand::valid() const {
  if (compute < 0) return false;
  if (segments.empty()) return true;
  Duration sum = 0;
  for (const auto& s : segments) {
    if (s.length < 0) return false;
    sum += s.length;
  }
  return util::almost_equal(sum, compute, 1e-9, 1e-12);
}

std::vector<double> TaskSpec::contributions() const {
  FRAP_EXPECTS(deadline > 0);
  std::vector<double> c;
  c.reserve(stages.size());
  for (const auto& s : stages)
    c.push_back(util::safe_div(s.compute, deadline));
  return c;
}

bool TaskSpec::valid() const {
  if (deadline <= 0) return false;
  if (stages.empty()) return false;
  for (const auto& s : stages) {
    if (!s.valid()) return false;
  }
  return true;
}

}  // namespace frap::core
