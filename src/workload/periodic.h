// Periodic task streams.
//
// The paper treats periodic arrivals as a special case of aperiodic ones:
// each invocation of a periodic task is admitted like any aperiodic arrival
// (possibly against reserved capacity, Sec. 5). A config describes one
// stream; the TSCE scenario (workload/tsce.h) builds its critical streams
// from it, and the programs that run them release the invocations with
// schedule_periodic (workload/arrival_scheduler.h).
#pragma once

#include <string>
#include <vector>

#include "core/task.h"
#include "util/time.h"

namespace frap::workload {

struct PeriodicStreamConfig {
  std::string name;
  Duration period = 0;
  Duration deadline = 0;  // relative; often == period
  double importance = 0;
  // Per-stage demand template (fixed computation times per invocation).
  std::vector<core::StageDemand> stages;
};

}  // namespace frap::workload
