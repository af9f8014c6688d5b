// The multi-dimensional feasible region (Eqs. 1-3 / 12, 13, 15).
//
// For a resource pipeline of N stages with synthetic utilizations U_1..U_N,
// all end-to-end deadlines are met while
//
//     sum_j f(U_j)  <=  alpha * (1 - sum_j beta_j)
//
// where f is the stage-delay factor (stage_delay.h), alpha in (0,1] is the
// urgency-inversion parameter of the fixed-priority policy (1 for
// deadline-monotonic), and beta_j = max_i B_ij / D_i is the normalized
// worst-case PCP blocking at stage j (0 for independent tasks).
//
// The region is a convex body in [0,1)^N whose boundary surface passes
// through the uniprocessor bound 2 - sqrt(2) on each axis when alpha = 1 and
// beta = 0.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace frap::core {

class FeasibleRegion {
 public:
  // Independent tasks under deadline-monotonic scheduling on `num_stages`
  // stages: alpha = 1, beta = 0.
  static FeasibleRegion deadline_monotonic(std::size_t num_stages);

  // Arbitrary fixed-priority policy with urgency-inversion parameter alpha.
  static FeasibleRegion with_alpha(std::size_t num_stages, double alpha);

  // Full form with per-stage normalized blocking terms.
  static FeasibleRegion with_blocking(double alpha,
                                      std::vector<double> beta_per_stage);

  std::size_t num_stages() const { return num_stages_; }
  double alpha() const { return alpha_; }

  // Right-hand side of the region inequality: alpha * (1 - sum beta_j).
  // Precomputed at construction; O(1).
  [[nodiscard]] double bound() const { return bound_; }

  // THE admission comparison: a state whose LHS is `lhs` is feasible
  // against `bound` iff lhs <= bound, boundary ties included. This is the
  // single sanctioned spelling in the tree (frap-lint rule R2): every
  // decision path — admits(), contains(), the admission controllers, the
  // batch path, LongPathEvaluator, the adaptive-alpha controller —
  // funnels through it so no two paths can disagree on a tie.
  [[nodiscard]] static bool admits_lhs(double lhs, double bound) {
    return lhs <= bound;
  }

  // The predicate against this region's own bound().
  [[nodiscard]] bool admits(double lhs) const {
    return admits_lhs(lhs, bound_);
  }

  // Left-hand side: sum_j f(U_j). Returns +infinity if any U_j >= 1.
  // utilizations.size() must equal num_stages().
  [[nodiscard]] double lhs(std::span<const double> utilizations) const;

  // True when the utilization vector lies inside (or on) the region.
  [[nodiscard]] bool contains(std::span<const double> utilizations) const;

  // Boundary tracing for surface plots (N = 2): given U_1, the largest U_2
  // keeping the system feasible (0 if U_1 alone exhausts the bound or is
  // saturated, u1 >= 1).
  [[nodiscard]] double boundary_u2(double u1) const;

 private:
  FeasibleRegion(std::size_t num_stages, double alpha,
                 std::vector<double> beta);

  std::size_t num_stages_;
  double alpha_;
  std::vector<double> beta_;
  double bound_;  // alpha * (1 - sum beta_j), cached
};

}  // namespace frap::core
