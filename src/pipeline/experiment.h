// One-call experiment driver reproducing the setup of Sec. 4: Poisson
// arrivals into an N-stage pipeline, deadline-monotonic (or random-priority)
// scheduling at each stage, and a selectable admission-control mode. Every
// figure bench is a sweep over ExperimentConfig.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"
#include "workload/pipeline_workload.h"

namespace frap::obs {
class Observer;
}  // namespace frap::obs

namespace frap::pipeline {

enum class AdmissionMode {
  kExact,          // Sec. 4: test with the task's actual computation times
  kApproximate,    // Sec. 4.4: test with per-stage mean computation times
  kNone,           // no admission control (everything enters the pipeline)
  kDeadlineSplit,  // baseline: per-stage D/N deadlines, per-stage 0.586 test
};

enum class PriorityMode {
  kDeadlineMonotonic,  // alpha = 1
  kRandom,             // random fixed priority; alpha = D_min / D_max
  // Dynamic dispatch policies (sched/policy.h). Admission stays
  // fixed-priority-sound: the controller keeps the deadline-monotonic
  // region (alpha = 1), which EDF — optimal on a uniprocessor — meets
  // whenever deadline-monotonic does; docs/schedulers.md discusses LLF and
  // the empirical per-policy regions measured by bench/ablation_edf.
  kEdf,  // earliest absolute deadline first
  kLlf,  // least laxity first (event-driven)
};

struct ExperimentConfig {
  workload::PipelineWorkloadConfig workload;
  std::uint64_t seed = 1;

  Duration sim_duration = 200.0 * kSec;  // arrivals stop here
  Duration warmup = 20.0 * kSec;         // measurement starts here

  AdmissionMode admission = AdmissionMode::kExact;
  PriorityMode priority = PriorityMode::kDeadlineMonotonic;
  bool idle_reset = true;       // ablation A1
  Duration patience = 0;        // >0: waiting admission (Sec. 5 style)

  // Processors backing each stage's StageServer. 1 is the paper's
  // single-resource model; > 1 schedules the pool globally (kEdf then means
  // gEDF). The admission region still charges each stage as a single
  // resource, so admission is conservative for pooled stages.
  std::size_t procs_per_stage = 1;

  // Optional decision/stage tracing (docs/observability.md): sink 0 feeds
  // the admission controller (exact/approximate modes only) and the
  // observer's stage observer, when it has one, is wired into the runtime
  // (must then match the workload's stage count). Must outlive the run;
  // tracing never changes decisions or results.
  obs::Observer* observer = nullptr;
};

struct ExperimentResult {
  std::vector<double> stage_utilization;  // real (busy-fraction) per stage
  double avg_stage_utilization = 0;
  double bottleneck_utilization = 0;  // max over stages

  std::uint64_t offered = 0;    // arrivals generated
  std::uint64_t admitted = 0;   // accepted by admission control
  std::uint64_t completed = 0;  // finished the pipeline
  double acceptance_ratio = 0;  // admitted / offered
  double miss_ratio = 0;        // deadline misses / completed
  double mean_response = 0;     // mean end-to-end response of completed
  std::uint64_t events = 0;     // simulator events executed
};

// Runs one experiment to completion (arrivals stop at sim_duration; in-
// flight tasks drain; utilization is measured on [warmup, sim_duration]).
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace frap::pipeline
