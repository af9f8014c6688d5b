// Ablation A2: urgency inversion (Eq. 12).
//
// Deadline-monotonic scheduling has alpha = 1; a random fixed-priority
// policy over a uniform deadline range [Dmin, Dmax] has alpha = Dmin/Dmax,
// shrinking the feasible region. This bench compares both policies (each
// admitted against its own correct region) and also shows what happens if
// random priorities are dishonestly admitted against the alpha = 1 region
// (misses appear — the alpha correction is load-bearing).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/experiment.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/table.h"
#include "workload/pipeline_workload.h"

namespace {

using namespace frap;

// Random-priority run with an arbitrary alpha in the admission region
// (alpha_override = 0 means "the correct one", Dmin/Dmax).
pipeline::ExperimentResult run_random(double load, double alpha_override,
                                      std::uint64_t seed) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      2, 10 * kMilli, load, 100.0);

  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, seed);
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);
  runtime.set_priority_policy(
      [&gen](const core::TaskSpec&) { return gen.aux_rng().uniform01(); });
  const double alpha =
      alpha_override > 0
          ? alpha_override
          : util::safe_div(wl.deadline_min(), wl.deadline_max());
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::with_alpha(2, alpha));

  const Duration sim_end = 120.0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::function<void()> arrivals = [&] {
    const Time t = sim.now() + gen.next_interarrival();
    if (t > sim_end) return;
    sim.at(t, [&] {
      ++offered;
      const auto spec = gen.next_task();
      if (controller.try_admit(spec, sim.now()).admitted) {
        ++admitted;
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      arrivals();
    });
  };
  arrivals();
  sim.run();

  pipeline::ExperimentResult r;
  r.stage_utilization = runtime.stage_utilizations(10.0, sim_end);
  for (double u : r.stage_utilization) r.avg_stage_utilization += u;
  r.avg_stage_utilization /= 2.0;
  r.offered = offered;
  r.admitted = admitted;
  r.completed = runtime.completed();
  r.acceptance_ratio =
      offered ? static_cast<double>(admitted) / static_cast<double>(offered)
              : 0.0;
  r.miss_ratio = runtime.misses().ratio();
  return r;
}

pipeline::ExperimentResult run_dm(double load) {
  pipeline::ExperimentConfig cfg;
  cfg.workload = workload::PipelineWorkloadConfig::balanced(
      2, 10 * kMilli, load, 100.0);
  cfg.seed = 6000;
  cfg.sim_duration = 120.0;
  cfg.warmup = 10.0;
  return pipeline::run_experiment(cfg);
}

}  // namespace

int main() {
  std::printf("Ablation A2: urgency-inversion parameter alpha (Eq. 12)\n");
  std::printf(
      "(two-stage pipeline; random fixed priorities vs deadline-monotonic; "
      "deadline spread 0.5 -> alpha = Dmin/Dmax = 1/3)\n\n");

  util::Table table({"load %", "DM util", "rand util (correct a)",
                     "rand miss (correct a)", "rand miss (a=1, WRONG)"});
  for (int load_pct = 80; load_pct <= 200; load_pct += 40) {
    const double load = load_pct / 100.0;
    const auto dm = run_dm(load);
    const auto rnd = run_random(load, 0.0, 42);
    const auto wrong = run_random(load, 1.0, 42);
    table.add_row({std::to_string(load_pct),
                   util::Table::fmt(dm.avg_stage_utilization, 3),
                   util::Table::fmt(rnd.avg_stage_utilization, 3),
                   util::Table::fmt(rnd.miss_ratio, 4),
                   util::Table::fmt(wrong.miss_ratio, 4)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: DM admits the most; random priorities with the "
      "alpha-corrected region stay at miss = 0 but lower utilization; "
      "pretending alpha = 1 for random priorities produces misses.\n");
  return 0;
}
