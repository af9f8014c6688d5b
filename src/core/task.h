// The aperiodic end-to-end task model (Sec. 2 of the paper).
//
// A task T_i arrives at the first pipeline stage at time A_i, carries a
// relative end-to-end deadline D_i, and needs computation C_ij on each stage
// j in order. Critical sections (Sec. 3.2) are expressed by splitting a
// stage's demand into segments, some of which hold a stage-local lock.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/job.h"
#include "util/time.h"

namespace frap::core {

// Demand of one subtask on one stage.
struct StageDemand {
  // Total execution time C_ij. If `segments` is empty the demand is one
  // lock-free segment of this length; otherwise `segments` must sum to it.
  Duration compute = 0;
  std::vector<sched::Segment> segments;

  // Materializes the segment list (single lock-free segment when none given).
  std::vector<sched::Segment> make_segments() const;

  // Validates internal consistency (segments sum to compute).
  [[nodiscard]] bool valid() const;
};

struct TaskSpec {
  std::uint64_t id = 0;
  Duration deadline = 0;    // relative end-to-end deadline D_i
  double importance = 0;    // semantic importance; larger = more important
  std::vector<StageDemand> stages;  // one entry per pipeline stage

  std::size_t num_stages() const { return stages.size(); }

  // Per-stage synthetic-utilization contribution C_ij / D_i.
  std::vector<double> contributions() const;

  [[nodiscard]] bool valid() const;
};

}  // namespace frap::core
