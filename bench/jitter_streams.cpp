// Motivation bench (Sec. 1): periodic streams with release jitter.
//
// The introduction argues that heavy jitter collapses the minimum
// interarrival time of "periodic" tasks, breaking sporadic-model analysis,
// while the aperiodic region still applies per invocation. We run K
// periodic streams through a two-stage pipeline at ~85% nominal load,
// certified schedulable for J = 0 by the static utilization argument, and
// sweep the per-invocation release jitter J:
//
//   * static baseline: every invocation enters the pipeline unchecked
//     (the sporadic certificate is trusted) — misses appear once J >= P;
//   * per-invocation admission (this paper): jittered bursts are clipped
//     at the admission controller; admitted invocations never miss.
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
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace frap;

struct JitterResult {
  double miss = 0;
  double accept = 1.0;
  double util = 0;
};

constexpr std::size_t kStreams = 19;
constexpr Duration kPeriod = 100 * kMilli;
constexpr Duration kCompute = 5 * kMilli;  // per stage: 19*5/100 = 95% load

JitterResult run(double jitter_periods, bool admission_control,
                 std::uint64_t seed) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));

  const Duration sim_end = 120.0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;

  util::Rng rng(seed);
  for (std::size_t s = 0; s < kStreams; ++s) {
    // Streams run phase-staggered (offset s*P/K) so the J = 0 case is the
    // benign spread-out periodic schedule. Jitter is BIMODAL — each
    // invocation is either on time or delayed by the full J — which is the
    // pathology the introduction describes: a delayed invocation followed
    // by an on-time one collapses the interarrival gap (to zero at J = P).
    // Releases are not monotone, so all invocations are scheduled up front.
    const Time phase =
        static_cast<double>(s) * kPeriod / static_cast<double>(kStreams);
    const Duration jitter = jitter_periods * kPeriod;
    for (std::size_t k = 0;
         static_cast<double>(k) * kPeriod <= sim_end; ++k) {
      const Duration delay =
          (jitter > 0 && rng.bernoulli(0.5)) ? jitter : 0.0;
      const Time release =
          phase + static_cast<double>(k) * kPeriod + delay;
      if (release > sim_end) continue;
      core::TaskSpec spec;
      spec.id = (s + 1) * 10'000'000ULL + k;
      spec.deadline = kPeriod;
      spec.stages.resize(2);
      spec.stages[0].compute = kCompute;
      spec.stages[1].compute = kCompute;
      sim.at(release, [&, spec] {
        ++offered;
        bool start = true;
        if (admission_control) {
          start = controller.try_admit(spec, sim.now()).admitted;
        }
        if (start) {
          ++admitted;
          runtime.start_task(spec, sim.now() + spec.deadline);
        }
      });
    }
  }
  sim.run();

  JitterResult r;
  r.miss = runtime.misses().ratio();
  r.accept = offered ? static_cast<double>(admitted) /
                           static_cast<double>(offered)
                     : 0;
  const auto u = runtime.stage_utilizations(10.0, sim_end);
  r.util = (u[0] + u[1]) / 2;
  return r;
}

}  // namespace

int main() {
  std::printf("Motivation: periodic streams under release jitter\n");
  std::printf("(17 streams, P = D = 100 ms, 5 ms/stage x 2 stages = 85%% "
              "nominal load — statically schedulable at J = 0)\n\n");

  util::Table table({"jitter (periods)", "static miss", "admitted miss",
                     "accept %", "util (admitted)"});
  for (double j : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    const auto baseline = run(j, false, 42);
    const auto ours = run(j, true, 42);
    table.add_row({util::Table::fmt(j, 2),
                   util::Table::fmt(baseline.miss, 4),
                   util::Table::fmt(ours.miss, 4),
                   util::Table::fmt(100 * ours.accept, 1),
                   util::Table::fmt(ours.util, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: the static certificate holds only at low jitter "
      "(misses grow with J); per-invocation admission clips bursts "
      "(acceptance dips below 100%%) and keeps admitted misses at 0.\n");
  return 0;
}
