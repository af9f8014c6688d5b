// The stage-delay theorem (Theorem 1) and its delay function
//
//     f(U) = U (1 - U/2) / (1 - U),
//
// the normalized worst-case time a task spends on a stage whose maximum
// synthetic utilization is U (in units of D_max, the largest relative
// deadline of interfering higher-priority tasks): L_j <= f(U_j) * D_max.
//
// Useful identities implemented and unit-tested here:
//   * f is strictly increasing and convex on [0, 1), f(0) = 0, f -> inf as
//     U -> 1.
//   * f_inv(y) = 1 + y - sqrt(1 + y^2)   (closed-form inverse).
//   * The single-resource bound of Abdelzaher & Lu: f(U) <= 1  <=>
//     U <= f_inv(1) = 2 - sqrt(2) = 1/(1 + sqrt(1/2)) ~= 0.5858.
//   * Balanced N-stage per-stage cap: N f(U) <= 1  <=>
//     U <= f_inv(1/N) = 1 + 1/N - sqrt(1 + 1/N^2).
#pragma once

#include <cstddef>

#include "util/check.h"
#include "util/math.h"
#include "util/time.h"

namespace frap::core {

// f(U). Requires 0 <= U < 1; returns +infinity for U >= 1 (a saturated
// stage admits no delay bound), which lets region tests reject uniformly
// instead of every caller special-casing U = 1. Inline: this is the single
// arithmetic kernel of every admission test and region evaluation.
inline double stage_delay_factor(double u) {
  FRAP_EXPECTS(u >= 0);
  if (u >= 1.0) return util::kInf;
  // frap-lint: allow(unsafe-division) -- this IS the sanctioned f(U)
  // kernel; the u >= 1 guard above returns +inf before the denominator
  // can reach zero.
  return u * (1.0 - u / 2.0) / (1.0 - u);
}

// Closed-form inverse: the largest U with f(U) <= y. Requires y >= 0.
double stage_delay_factor_inverse(double y);

// The uniprocessor aperiodic synthetic-utilization bound, f_inv(1) =
// 2 - sqrt(2) (equals 1/(1 + sqrt(1/2)) from the paper's Sec. 3.1).
double uniprocessor_bound();

// Per-stage cap when all N stages run equal synthetic utilization,
// f_inv(1/N). Requires n >= 1.
double balanced_stage_bound(std::size_t n);

}  // namespace frap::core
