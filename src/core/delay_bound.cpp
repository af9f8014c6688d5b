#include "core/delay_bound.h"

#include <vector>

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

Duration predict_graph_delay(const GraphTaskSpec& task,
                             std::span<const double> utilizations,
                             Duration d_max) {
  std::vector<double> weights(utilizations.size());
  for (std::uint32_t r : task.touched_resources()) {
    FRAP_EXPECTS(r < utilizations.size());
    if (utilizations[r] >= 1.0) return util::kInf;
    weights[r] = stage_delay_factor(utilizations[r]) * d_max;
  }
  return task.critical_path_by_resource(weights);
}

bool provably_meets_deadline(const TaskSpec& spec,
                             std::span<const double> utilizations) {
  FRAP_EXPECTS(spec.valid());
  // Under deadline-monotonic scheduling, only tasks with deadlines no
  // longer than spec's can delay it, so D_max <= spec.deadline.
  return predict_pipeline_delay(utilizations, spec.deadline) <=
         spec.deadline;
}

}  // namespace frap::core
