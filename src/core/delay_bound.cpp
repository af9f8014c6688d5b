#include "core/delay_bound.h"

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

Duration predict_stage_delay(double u, Duration d_max, Duration blocking) {
  FRAP_EXPECTS(d_max >= 0);
  FRAP_EXPECTS(blocking >= 0);
  if (u >= 1.0) return util::kInf;
  return stage_delay_factor(u) * d_max + blocking;
}

Duration predict_pipeline_delay(std::span<const double> utilizations,
                                Duration d_max) {
  Duration total = 0;
  for (double u : utilizations) {
    const Duration l = predict_stage_delay(u, d_max);
    if (l == util::kInf) return util::kInf;
    total += l;
  }
  return total;
}

}  // namespace frap::core
