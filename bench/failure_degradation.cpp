// Failure injection: a stage degrades at run time (TSCE damage response).
//
// The analysis measures demands in EXECUTION time, so when a stage's
// processor slows (damage, thermal throttling), every admitted task's
// effective demand silently grows and the certificate is void. Timeline:
// stage 2 of a two-stage pipeline drops to 60% speed at t = 40 s.
//
//   * naive:      the admission controller keeps using the nominal
//                 computation times — misses appear after the damage;
//   * remediated: at detection (t = 40 s) admission switches to
//                 approximate mode with the mean demand of the damaged
//                 stage scaled by 1/speed — guarantees are restored at
//                 the cost of acceptance.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "workload/arrival_scheduler.h"
#include "workload/pipeline_workload.h"

namespace {

using namespace frap;

constexpr Duration kDamageAt = 40.0;
constexpr Duration kSimEnd = 120.0;
constexpr double kDegradedSpeed = 0.6;

struct Phase {
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
};

struct DegradationResult {
  Phase before;
  Phase after;
  double accept_after = 0;
};

DegradationResult run(bool remediate, std::uint64_t seed) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      2, 10 * kMilli, /*load=*/1.0, /*resolution=*/60.0);
  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, seed);
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));

  DegradationResult result;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec&, Duration, bool missed) {
        Phase& p = sim.now() < kDamageAt ? result.before : result.after;
        ++p.completed;
        if (missed) ++p.missed;
      });

  // The damage event, plus (optionally) the operator's remediation: scale
  // the admission-side demand of stage 2 by 1/speed via approximate mode.
  sim.at(kDamageAt, [&] {
    runtime.stage(1).set_speed(kDegradedSpeed);
    if (remediate) {
      controller.set_approximate_means(
          {wl.mean_compute[0], wl.mean_compute[1] / kDegradedSpeed});
    }
  });

  std::uint64_t offered_after = 0;
  std::uint64_t admitted_after = 0;
  workload::schedule_renewal(
      sim, kSimEnd, [&] { return gen.next_interarrival(); }, [&](Time) {
        auto spec = gen.next_task();
        const bool after = sim.now() >= kDamageAt;
        if (after) ++offered_after;
        if (controller.try_admit(spec, sim.now()).admitted) {
          if (after) ++admitted_after;
          // Execution uses the task's nominal demands; the slowed server
          // stretches them in wall time automatically.
          runtime.start_task(spec, sim.now() + spec.deadline);
        }
      });
  sim.run();

  result.accept_after =
      offered_after ? static_cast<double>(admitted_after) /
                          static_cast<double>(offered_after)
                    : 0;
  return result;
}

std::string miss_str(const Phase& p) {
  if (p.completed == 0) return "-";
  return util::Table::fmt(
      static_cast<double>(p.missed) / static_cast<double>(p.completed), 4);
}

}  // namespace

int main() {
  std::printf("Failure injection: stage 2 degrades to %.0f%% speed at "
              "t = %.0f s\n\n",
              100 * kDegradedSpeed, kDamageAt);

  util::Table table({"strategy", "miss before damage", "miss after damage",
                     "accept after"});
  const auto naive = run(false, 5);
  const auto fixed = run(true, 5);
  table.add_row({"naive (stale demands)", miss_str(naive.before),
                 miss_str(naive.after),
                 util::Table::fmt(naive.accept_after, 3)});
  table.add_row({"remediated (scaled means)", miss_str(fixed.before),
                 miss_str(fixed.after),
                 util::Table::fmt(fixed.accept_after, 3)});
  table.print(std::cout);
  std::printf(
      "\nexpected shape: zero misses before the damage in both rows; the "
      "naive controller misses afterwards (its certificate assumes the "
      "nominal speed), while scaling the admission-side demand restores "
      "miss-free operation at reduced acceptance.\n");
  return 0;
}
