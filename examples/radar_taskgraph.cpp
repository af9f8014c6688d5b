// Sensor-data processing as an arbitrary task graph (Sec. 3.3, Fig. 3).
//
// Radar contacts fan out after ingest into two parallel analyses (track
// correlation and threat classification) that rejoin for display — the
// Fig. 3 shape on four resources. Every contact shares one interned
// topology and carries its own demands. Admission uses Theorem 2's per-task
// critical-path region (the ratio-1 mode of the long-path evaluator at
// alpha = 1); execution uses the DAG runtime with fork/join precedence.
// Every admitted contact meets its end-to-end deadline.
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

enum Resource : std::size_t {
  kIngest = 0,
  kCorrelator = 1,
  kClassifier = 2,
  kDisplay = 3,
  kNumResources = 4,
};

core::GraphTaskSpec radar_contact(std::uint64_t id, util::Rng& rng) {
  auto demand = [&rng](Duration mean) {
    core::StageDemand d;
    d.compute = rng.exponential(mean);
    return d;
  };
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = rng.uniform(1.5, 4.5);  // seconds, end to end
  g.nodes = {core::GraphNode{kIngest, demand(8 * kMilli)},
             core::GraphNode{kCorrelator, demand(15 * kMilli)},
             core::GraphNode{kClassifier, demand(12 * kMilli)},
             core::GraphNode{kDisplay, demand(6 * kMilli)}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  return g;
}

}  // namespace

int main() {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kNumResources);
  pipeline::DagRuntime runtime(sim, kNumResources, &tracker);
  core::GraphAdmissionController admission(
      sim, tracker,
      core::LongPathEvaluator::ratio_one(kNumResources, /*alpha=*/1.0, {}));
  core::TaskGraphShapeRegistry shapes;

  const Duration horizon = 60.0;
  util::Rng rng(4242);
  std::uint64_t next_id = 1;

  // Contacts at ~90 Hz: correlator (15 ms mean) is the bottleneck at
  // ~135% of its capacity — the admission controller earns its keep.
  workload::schedule_poisson(sim, 90.0, horizon, 4242, [&](Time) {
    const auto contact = shapes.canonicalize(radar_contact(next_id++, rng));
    if (admission.try_admit(contact, sim.now()).admitted) {
      runtime.start_task(contact, sim.now() + contact.deadline);
    }
  });
  sim.run();

  std::printf("radar DAG processing (Fig. 3 shape, Theorem 2 admission)\n\n");
  std::printf("contacts offered:  %llu\n",
              static_cast<unsigned long long>(admission.attempts()));
  std::printf("contacts admitted: %llu (%.1f%%)\n",
              static_cast<unsigned long long>(admission.admitted()),
              100.0 * static_cast<double>(admission.admitted()) /
                  static_cast<double>(admission.attempts()));
  std::printf("completed:         %llu\n",
              static_cast<unsigned long long>(runtime.completed()));
  std::printf("deadline misses:   %llu (Theorem 2 guarantee)\n",
              static_cast<unsigned long long>(runtime.misses().hits()));
  const auto u = runtime.stage_utilizations(5.0, horizon);
  std::printf("\nutilization: ingest %.1f%%, correlator %.1f%%, classifier "
              "%.1f%%, display %.1f%%\n",
              100 * u[kIngest], 100 * u[kCorrelator], 100 * u[kClassifier],
              100 * u[kDisplay]);
  std::printf("mean contact latency: %.0f ms (critical path through the "
              "fork/join)\n",
              runtime.response_times().mean() / kMilli);
  // Every admitted contact must meet its deadline (Theorem 2); a miss means
  // the admission or the runtime is broken, so the run fails.
  if (runtime.misses().hits() > 0) {
    std::fprintf(stderr, "error: %llu admitted contacts missed their "
                         "deadline\n",
                 static_cast<unsigned long long>(runtime.misses().hits()));
    return 1;
  }
  return 0;
}
