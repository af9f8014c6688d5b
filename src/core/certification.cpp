#include "core/certification.h"

#include "util/check.h"

namespace frap::core {

ScenarioCertifier::ScenarioCertifier(
    FeasibleRegion region, std::vector<ReservationPlanner::StageRule> rules)
    : region_(std::move(region)), rules_(std::move(rules)) {
  FRAP_EXPECTS(rules_.size() == region_.num_stages());
}

std::size_t ScenarioCertifier::add(CatalogEntry entry) {
  FRAP_EXPECTS(entry.contributions.size() == region_.num_stages());
  for (double c : entry.contributions) FRAP_EXPECTS(c >= 0);
  catalog_.push_back(std::move(entry));
  return catalog_.size() - 1;
}

ScenarioVerdict ScenarioCertifier::certify(
    const std::vector<std::size_t>& members) const {
  ReservationPlanner planner(rules_);
  for (std::size_t i : members) {
    FRAP_EXPECTS(i < catalog_.size());
    planner.add_contributions(catalog_[i].contributions);
  }
  ScenarioVerdict v;
  v.members = members;
  v.lhs = planner.certification_lhs(region_);
  v.certified = planner.certifies(region_);
  return v;
}

std::vector<ScenarioVerdict> ScenarioCertifier::certify_all_subsets() const {
  FRAP_EXPECTS(catalog_.size() <= 20);
  const std::size_t n = catalog_.size();
  const std::uint32_t subsets = 1u << n;
  std::vector<ScenarioVerdict> verdicts;
  verdicts.reserve(subsets);
  for (std::uint32_t mask = 0; mask < subsets; ++mask) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) members.push_back(i);
    }
    verdicts.push_back(certify(members));
  }
  return verdicts;
}

}  // namespace frap::core
