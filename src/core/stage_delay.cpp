#include "core/stage_delay.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace frap::core {

double stage_delay_factor_inverse(double y) {
  FRAP_EXPECTS(y >= 0);
  // Solve U(1 - U/2) = y(1 - U):  U^2/2 - (1 + y) U + y = 0
  //   => U = (1 + y) - sqrt((1 + y)^2 - 2y) = 1 + y - sqrt(1 + y^2).
  const double u = 1.0 + y - std::sqrt(1.0 + y * y);
  FRAP_ENSURES(u >= 0 && u < 1.0);
  return u;
}

double uniprocessor_bound() { return 2.0 - std::sqrt(2.0); }

double balanced_stage_bound(std::size_t n) {
  FRAP_EXPECTS(n >= 1);
  return stage_delay_factor_inverse(1.0 / static_cast<double>(n));
}

}  // namespace frap::core
