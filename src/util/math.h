// Small numeric helpers shared across modules.
#pragma once

#include <cmath>
#include <limits>

namespace frap::util {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative-or-absolute closeness test for analytical results.
inline bool almost_equal(double a, double b, double rel = 1e-9,
                         double abs = 1e-12) {
  const double diff = std::fabs(a - b);
  if (diff <= abs) return true;
  return diff <= rel * std::fmax(std::fabs(a), std::fabs(b));
}

// Saturation-safe division for nonnegative numerators over positive
// denominators (deadlines, headroom terms): a zero or negative denominator
// yields +infinity — the "saturated, reject" sentinel every admission path
// already handles — instead of NaN, a signed infinity, or garbage the
// caller would then trust. frap-lint rule R1 (unsafe-division) routes all
// divisions by deadlines through here; see docs/static_analysis.md.
inline double safe_div(double num, double denom) {
  return denom > 0 ? num / denom : kInf;
}

// 1/x with the same contract as safe_div.
inline double safe_inv(double x) { return safe_div(1.0, x); }

}  // namespace frap::util
