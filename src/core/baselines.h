// Per-stage deadline splitting, the baseline the paper positions itself
// against: the "traditional" way to handle pipelines that the introduction
// criticizes — give every task an intermediate deadline D_i / N on each
// stage and run an independent single-resource aperiodic admission test per
// stage (per-stage synthetic utilization V_j = sum C_ij N / D_i, admit iff
// every V_j <= 2 - sqrt(2)). Compared against the end-to-end region in
// bench/ablation_deadline_split.
#pragma once

#include "core/admission.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "sim/simulator.h"

namespace frap::core {

// Admission control by intermediate per-stage deadlines. Maintains its own
// notion of per-stage synthetic utilization V_j with contributions
// C_ij / (D_i / N) and admits iff every stage independently satisfies the
// uniprocessor aperiodic bound. Deliberately pessimistic: used as the
// baseline to show the value of the end-to-end region.
class DeadlineSplitAdmissionController {
 public:
  DeadlineSplitAdmissionController(sim::Simulator& sim,
                                   SyntheticUtilizationTracker& tracker);

  // The lhs/bound pair is reported scaled so that 1.0 = at the per-stage
  // uniprocessor bound (bound is therefore always 1.0 here).
  [[nodiscard]] AdmissionDecision try_admit(const TaskSpec& spec, Time now);

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t admitted() const { return admitted_; }

  SyntheticUtilizationTracker& tracker() { return tracker_; }

 private:
  sim::Simulator& sim_;
  SyntheticUtilizationTracker& tracker_;
  std::vector<double> scratch_add_;  // reused contribution buffer
  std::vector<double> scratch_u_;    // reused utilization snapshot buffer
  std::uint64_t attempts_ = 0;
  std::uint64_t admitted_ = 0;
};

}  // namespace frap::core
