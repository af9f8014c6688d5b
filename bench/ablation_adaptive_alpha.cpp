// Extension bench: learned (adaptive) alpha vs a priori alpha.
//
// With random fixed priorities the exact urgency-inversion parameter is
// alpha = Dmin/Dmax over the task set, but an operator rarely knows the
// deadline range in advance. The adaptive controller starts at alpha = 1
// and ratchets down as inversions are actually admitted. Compared here
// against (a) the exact a-priori alpha and (b) the dishonest alpha = 1
// static region, on identical arrivals.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/adaptive_alpha.h"
#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "util/math.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "workload/pipeline_workload.h"
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

struct Result {
  double util = 0;
  double accept = 0;
  double miss = 0;
  double final_alpha = 1.0;
};

enum class Mode { kAdaptive, kStaticExact, kStaticOne };

Result run(double load, Mode mode, std::uint64_t seed) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      2, 10 * kMilli, load, 100.0);
  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, seed);
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);

  // Fixed random priorities, assigned per task by the workload's aux rng.
  auto priorities =
      std::make_shared<std::unordered_map<std::uint64_t, double>>();
  runtime.set_priority_policy(
      [priorities](const core::TaskSpec& s) { return priorities->at(s.id); });

  std::optional<core::AdaptiveAlphaAdmissionController> adaptive;
  std::optional<core::AdmissionController> fixed;
  if (mode == Mode::kAdaptive) {
    adaptive.emplace(sim, tracker);
  } else {
    const double alpha =
        mode == Mode::kStaticExact
            ? util::safe_div(wl.deadline_min(), wl.deadline_max())
            : 1.0;
    fixed.emplace(sim, tracker, core::FeasibleRegion::with_alpha(2, alpha));
  }

  const Duration sim_end = 120.0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  workload::schedule_renewal(
      sim, sim_end, [&] { return gen.next_interarrival(); }, [&](Time) {
      ++offered;
      const auto spec = gen.next_task();
      const double prio = gen.aux_rng().uniform01();
      bool ok = false;
      if (adaptive.has_value()) {
        ok = adaptive->try_admit(spec, prio).admitted;
      } else {
        ok = fixed->try_admit(spec, sim.now()).admitted;
      }
      if (ok) {
        (*priorities)[spec.id] = prio;
        ++admitted;
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      });
  sim.run();

  Result r;
  const auto u = runtime.stage_utilizations(10.0, sim_end);
  r.util = (u[0] + u[1]) / 2;
  r.accept = offered ? static_cast<double>(admitted) /
                           static_cast<double>(offered)
                     : 0;
  r.miss = runtime.misses().ratio();
  if (adaptive.has_value()) r.final_alpha = adaptive->alpha();
  return r;
}

}  // namespace

int main() {
  std::printf("Extension: adaptive (learned) alpha for unknown policies\n");
  std::printf("(random fixed priorities; exact a-priori alpha = Dmin/Dmax "
              "= 1/3)\n\n");

  util::Table table({"load %", "adaptive util", "adaptive miss",
                     "learned alpha", "exact-a util", "exact-a miss",
                     "a=1 miss (WRONG)"});
  for (int load_pct : {100, 160, 200}) {
    const double load = load_pct / 100.0;
    const auto ad = run(load, Mode::kAdaptive, 31);
    const auto ex = run(load, Mode::kStaticExact, 31);
    const auto wrong = run(load, Mode::kStaticOne, 31);
    table.add_row({std::to_string(load_pct), util::Table::fmt(ad.util, 3),
                   util::Table::fmt(ad.miss, 4),
                   util::Table::fmt(ad.final_alpha, 3),
                   util::Table::fmt(ex.util, 3),
                   util::Table::fmt(ex.miss, 4),
                   util::Table::fmt(wrong.miss, 4)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: the learned alpha converges toward (but never "
      "below what the admitted history justifies vs) the a-priori 1/3; "
      "both keep miss = 0 while the static alpha = 1 region shows "
      "misses.\n");
  return 0;
}
