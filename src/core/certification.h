// A-priori certification of task-arrival scenarios (Sec. 5).
//
// "Using our analysis ... can both improve schedulability and allow a
//  priori pre-certification of different combinations of periodic and
//  aperiodic task arrival scenarios."
//
// A scenario is a set of critical tasks assumed concurrently active; it is
// certified when the feasible region contains the combined worst-case
// synthetic utilization (per-stage sum/max rules via ReservationPlanner).
// The certifier evaluates an explicit scenario, or exhaustively every
// subset of a small task catalog, and reports per-scenario verdicts — the
// offline artifact that replaces the "man-years of testing" the paper
// describes for the TSCE.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/feasible_region.h"
#include "core/reservation.h"

namespace frap::core {

// One critical activity in the catalog.
struct CatalogEntry {
  std::string name;
  // Per-stage synthetic utilization contribution (C_j / D).
  std::vector<double> contributions;
};

struct ScenarioVerdict {
  std::vector<std::size_t> members;  // indices into the catalog
  double lhs = 0;                    // region LHS at the combined load
  bool certified = false;
};

class ScenarioCertifier {
 public:
  // `rules` define how each stage combines contributions (shared stages
  // sum, partitioned stages take the max — the Sec. 5 console rule).
  ScenarioCertifier(FeasibleRegion region,
                    std::vector<ReservationPlanner::StageRule> rules);

  // Adds a catalog entry; contributions must match the region dimension.
  // Returns the entry's index.
  std::size_t add(CatalogEntry entry);

  std::size_t catalog_size() const { return catalog_.size(); }
  const CatalogEntry& entry(std::size_t i) const { return catalog_[i]; }

  // Certifies one scenario (a set of catalog indices; duplicates allowed
  // and counted twice, modelling two concurrent instances).
  ScenarioVerdict certify(const std::vector<std::size_t>& members) const;

  // Certifies EVERY subset of the catalog (requires catalog_size() <= 20).
  // Returned in subset-bitmask order (empty set first).
  std::vector<ScenarioVerdict> certify_all_subsets() const;

 private:
  FeasibleRegion region_;
  std::vector<ReservationPlanner::StageRule> rules_;
  std::vector<CatalogEntry> catalog_;
};

}  // namespace frap::core
