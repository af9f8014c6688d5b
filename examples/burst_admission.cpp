// Burst admission: deciding arrival storms in one call.
//
// Bursty sources (sensor frames, fan-in upstream queues, replayed traces)
// release many tasks at the same instant. BatchAdmissionController decides
// every arrival of a burst in order through the controller's incremental
// try_admit() at the burst instant — the same decisions as submitting them
// one by one (bench/micro_admission measures the per-attempt cost).
//
// This demo fires Poisson-spaced bursts of 8-64 tasks at a 4-stage pipeline
// for 30 simulated seconds and shows:
//   * per-burst acceptance: early tasks of a burst fill the region, late
//     ones are rejected — order within the burst matters, exactly as it
//     would submitting them one by one;
//   * soundness: every admitted task still meets its end-to-end deadline.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/burst_admission
#include <cstdio>
#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"

int main() {
  using namespace frap;

  constexpr std::size_t kStages = 4;
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  pipeline::PipelineRuntime runtime(sim, kStages, &tracker);
  core::AdmissionController admission(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  core::BatchAdmissionController batch(admission);

  util::Rng rng(2026);
  std::uint64_t next_id = 1;
  std::uint64_t bursts = 0;
  std::uint64_t burst_tasks = 0;
  const Duration horizon = 30.0;

  std::function<void()> next_burst = [&] {
    const Time t = sim.now() + rng.exponential(0.25);  // ~4 bursts/s
    if (t > horizon) return;
    sim.at(t, [&] {
      // One storm: 8-64 tasks released at the same instant.
      std::vector<core::TaskSpec> storm(
          static_cast<std::size_t>(rng.uniform_int(8, 64)));
      for (auto& spec : storm) {
        spec.id = next_id++;
        spec.deadline = rng.uniform(0.5, 2.0);
        spec.stages.resize(kStages);
        for (auto& s : spec.stages) {
          if (rng.bernoulli(0.75)) {
            s.compute = rng.exponential(4 * kMilli);
          }
        }
      }
      const auto& decisions = batch.try_admit_burst(storm);
      for (std::size_t i = 0; i < storm.size(); ++i) {
        if (decisions[i].admitted) {
          runtime.start_task(storm[i], sim.now() + storm[i].deadline);
        }
      }
      ++bursts;
      burst_tasks += storm.size();
      next_burst();
    });
  };
  next_burst();
  sim.run();

  std::printf("bursts:    %llu (%llu tasks, avg %.1f per burst)\n",
              static_cast<unsigned long long>(bursts),
              static_cast<unsigned long long>(burst_tasks),
              bursts == 0 ? 0.0
                          : static_cast<double>(burst_tasks) /
                                static_cast<double>(bursts));
  std::printf("admitted:  %llu (%.1f%%)\n",
              static_cast<unsigned long long>(admission.admitted()),
              100.0 * admission.acceptance_ratio());
  std::printf("completed: %llu\n",
              static_cast<unsigned long long>(runtime.completed()));
  std::printf("deadline misses: %llu  <- burst decisions stay sound\n",
              static_cast<unsigned long long>(runtime.misses().hits()));
  // The incremental-LHS cache survived the storm bit-exactly (aborts on
  // drift; see docs/incremental_lhs.md).
  tracker.verify_lhs_cache();
  std::printf("lhs cache: %llu crosschecks, %llu rebuilds, max drift %.2e\n",
              static_cast<unsigned long long>(
                  tracker.lhs_cache_stats().crosschecks),
              static_cast<unsigned long long>(
                  tracker.lhs_cache_stats().rebuilds),
              tracker.lhs_cache_stats().max_drift);
  return runtime.misses().hits() == 0 ? 0 : 1;
}
