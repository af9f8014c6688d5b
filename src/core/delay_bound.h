// Worst-case delay prediction from Theorem 1.
//
// Given (upper bounds on) per-stage synthetic utilizations, Theorem 1
// bounds the residence time of a task on stage j by f(U_j) * D_max, where
// D_max is the largest relative deadline among interfering higher-priority
// tasks. Summing over a pipeline yields a worst-case end-to-end delay —
// usable as an admission-time latency estimate ("if admitted now, how late
// could this task be?") and validated end-to-end by the integration tests
// (no observed response time ever exceeds the bound computed from peak
// utilizations).
#pragma once

#include <span>

#include "util/time.h"

namespace frap::core {

// Worst-case residence at one stage (Theorem 1): f(u) * d_max, plus
// optional per-stage blocking b (Sec. 3.2). Returns +infinity when u >= 1.
Duration predict_stage_delay(double u, Duration d_max, Duration blocking = 0);

// Worst-case end-to-end delay of a pipeline task given per-stage
// utilization bounds. d_max is the largest relative deadline among tasks
// that can delay this one (under DM: this task's own deadline bounds it,
// since only shorter-deadline tasks have higher priority).
// utilizations.size() defines the pipeline length.
Duration predict_pipeline_delay(std::span<const double> utilizations,
                                Duration d_max);

}  // namespace frap::core
