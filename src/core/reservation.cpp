#include "core/reservation.h"

#include <algorithm>

#include "util/check.h"

namespace frap::core {

ReservationPlanner::ReservationPlanner(std::vector<StageRule> rules)
    : rules_(std::move(rules)),
      sum_(rules_.size(), 0.0),
      max_(rules_.size(), 0.0) {
  FRAP_EXPECTS(!rules_.empty());
}

void ReservationPlanner::add_contributions(
    const std::vector<double>& per_stage) {
  FRAP_EXPECTS(per_stage.size() == rules_.size());
  for (std::size_t j = 0; j < rules_.size(); ++j) {
    FRAP_EXPECTS(per_stage[j] >= 0);
    sum_[j] += per_stage[j];
    max_[j] = std::max(max_[j], per_stage[j]);
  }
}

std::vector<double> ReservationPlanner::reserved() const {
  std::vector<double> r(rules_.size());
  for (std::size_t j = 0; j < rules_.size(); ++j) {
    r[j] = rules_[j] == StageRule::kSum ? sum_[j] : max_[j];
  }
  return r;
}

double ReservationPlanner::certification_lhs(
    const FeasibleRegion& region) const {
  return region.lhs(reserved());
}

bool ReservationPlanner::certifies(const FeasibleRegion& region) const {
  return region.contains(reserved());
}

}  // namespace frap::core
