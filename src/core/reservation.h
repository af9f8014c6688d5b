// Reservation planning for critical task sets (Sec. 5).
//
// A fraction of each stage's synthetic utilization is set aside for
// critical periodic/aperiodic tasks: U_j^res = sum_i C_ij / D_i over the
// critical tasks that need stage j. Stages that are physically partitioned
// among the tasks (e.g. per-console displays: "we do not add their
// utilizations, but take the largest one") use a max rule instead of a sum.
// The planner certifies the reservation against a feasible region (the
// paper's "first question"); installing its reserved() floors into a
// tracker with set_reservation() lets run-time admission take dynamic load
// on top (the "second question").
#pragma once

#include <cstddef>
#include <vector>

#include "core/feasible_region.h"

namespace frap::core {

class ReservationPlanner {
 public:
  enum class StageRule {
    kSum,  // shared resource: contributions accumulate
    kMax,  // partitioned resource: only the largest single user counts
  };

  // One rule per stage.
  explicit ReservationPlanner(std::vector<StageRule> rules);

  std::size_t num_stages() const { return rules_.size(); }

  // Registers a critical task shape by its per-stage contributions
  // (C_ij / D_i). Periodic streams pass one invocation's contributions;
  // aperiodic criticals pass their worst-case single-instance load.
  void add_contributions(const std::vector<double>& per_stage);

  // The planned per-stage reservation under the configured rules.
  std::vector<double> reserved() const;

  // Region LHS at the planned reservation.
  [[nodiscard]] double certification_lhs(const FeasibleRegion& region) const;

  // True when the reservation fits the region (all critical tasks meet
  // end-to-end deadlines by Theorem 1/2).
  [[nodiscard]] bool certifies(const FeasibleRegion& region) const;

 private:
  std::vector<StageRule> rules_;
  std::vector<double> sum_;
  std::vector<double> max_;
};

}  // namespace frap::core
