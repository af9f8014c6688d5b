// Microbenchmark for the paper's complexity claim (Sec. 1): the admission
// test is O(N) in the number of pipeline stages and INDEPENDENT of the
// number of tasks already in the system.
//
// Uses google-benchmark. Sweeps:
//   * AdmissionVsStages/N: cost vs pipeline length at a fixed task
//     population;
//   * AdmissionVsTasks/T: cost vs live-task count at fixed N=4 — flat;
//   * AdmissionReferencePath / AdmissionFastPath / AdmissionBatchPath:
//     attempts/sec (items_per_second) of the seed full evaluation vs the
//     incremental allocation-free fast path vs the batch path (the fast
//     path per spec of a burst), on the acceptance-criteria scenario — a 5-stage pipeline with
//     sparse tasks (one touched stage) rejected right at the boundary;
//   * AdmissionChurnSlotMapStore / AdmissionChurnReferenceStore: the
//     storage A/B — full admit -> commit -> expire steady-state cycles at
//     10k live tasks, slot-map/typed-timer store vs the preserved PR-1
//     store (unordered_map records + closure expiries) behind the identical
//     incremental predicate. The issue targeted >= 3x attempts/sec; the
//     measured ratio saturates near 1.1x because the PR-1 cycle was never
//     allocation-dominated — docs/perf_internals.md ("Measuring it") has
//     the decomposition.
//   * AdmissionShedChurn{SlotMapStore,ReferenceStore}: same population but
//     tasks leave by explicit removal mid-deadline, so every departure is
//     an eager event-heap cancel on both stores.
//
// Writes BENCH_admission.json (override the path with FRAP_BENCH_JSON) with
// attempts/sec per variant, the live-task count, and the churn speedup.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/admission.h"
#include "core/feasible_region.h"
#include "support/reference_admitter.h"
#include "support/reference_tracker.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "sim/simulator.h"
#include "util/math.h"

namespace {

using namespace frap;

core::TaskSpec tiny_task(std::uint64_t id, std::size_t stages) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = 1.0;
  spec.stages.resize(stages);
  for (auto& s : spec.stages) s.compute = 1e-6;
  return spec;
}

// A task touching only stage 0 of a `stages`-long pipeline.
core::TaskSpec sparse_task(std::uint64_t id, std::size_t stages,
                           double compute) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = 1.0;
  spec.stages.resize(stages);
  spec.stages[0].compute = compute;
  return spec;
}

// Prefills every stage to ~94% of the balanced cap so that a sparse probe
// of contribution 0.1 is rejected AT the boundary: the test runs in full
// (no early saturation exit) but never commits, keeping the measured state
// constant across iterations.
void prefill_near_boundary(core::AdmissionController& controller,
                           std::size_t stages) {
  const double cap = core::balanced_stage_bound(stages);
  core::TaskSpec fill;
  fill.id = 1;
  fill.deadline = 1.0;
  fill.stages.resize(stages);
  for (auto& s : fill.stages) s.compute = 0.94 * cap;
  const auto d = controller.try_admit(fill, controller.now());
  if (!d.admitted) std::abort();  // scenario must start inside the region
}

void AdmissionVsStages(benchmark::State& state) {
  const auto stages = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, stages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(stages));
  // Populate with 1000 live tasks.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    (void)controller.try_admit(tiny_task(i + 1, stages), sim.now());
  }
  // The probe saturates a stage so it is always REJECTED: the full O(N)
  // region evaluation runs but nothing is committed, keeping the measured
  // state constant across iterations.
  auto probe = tiny_task(0, stages);
  probe.stages[0].compute = 2.0;
  std::uint64_t id = 1'000'000;
  for (auto _ : state) {
    auto spec = probe;
    spec.id = id++;
    benchmark::DoNotOptimize(controller.try_admit(spec, sim.now()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(AdmissionVsStages)->RangeMultiplier(2)->Range(1, 64)->Complexity();

void AdmissionVsTasks(benchmark::State& state) {
  const std::size_t stages = 4;
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, stages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(stages));
  const auto live = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < live; ++i) {
    (void)controller.try_admit(tiny_task(i + 1, stages), sim.now());
  }
  auto probe = tiny_task(0, stages);
  probe.stages[0].compute = 2.0;  // always rejected; state stays constant
  std::uint64_t id = 100'000'000;
  for (auto _ : state) {
    auto spec = probe;
    spec.id = id++;
    benchmark::DoNotOptimize(controller.try_admit(spec, sim.now()));
  }
  // The point: time here must NOT grow with `live`.
}
BENCHMARK(AdmissionVsTasks)->RangeMultiplier(10)->Range(10, 100000);

// ------------------------------------------- fast-path acceptance sweep ---
// Acceptance criterion: the fast path must sustain >= 5x the attempts/sec
// of the reference path on a 5-stage pipeline with sparse tasks. Compare
// the items_per_second counters of the three benchmarks below.

constexpr std::size_t kSweepStages = 5;
constexpr double kProbeCompute = 0.1;  // rejected at the boundary, u < 1

void AdmissionReferencePath(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kSweepStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kSweepStages));
  prefill_near_boundary(controller, kSweepStages);
  frap::testing::ReferenceAdmitter reference(controller);
  const auto probe = sparse_task(2, kSweepStages, kProbeCompute);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference.try_admit(probe, sim.now()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(AdmissionReferencePath);

void AdmissionFastPath(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kSweepStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kSweepStages));
  prefill_near_boundary(controller, kSweepStages);
  const auto probe = sparse_task(2, kSweepStages, kProbeCompute);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.try_admit(probe, sim.now()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(AdmissionFastPath);

void AdmissionBatchPath(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kSweepStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kSweepStages));
  prefill_near_boundary(controller, kSweepStages);
  core::BatchAdmissionController batch(controller);
  std::vector<core::TaskSpec> specs;
  for (std::size_t i = 0; i < burst; ++i) {
    specs.push_back(sparse_task(2 + i, kSweepStages, kProbeCompute));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.try_admit_burst(specs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(burst));
}
BENCHMARK(AdmissionBatchPath)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------- storage churn A/B (ISSUE 5) --
// The full per-admission work at capacity: test, commit into the tracker,
// schedule the expiry, and retire ~one expired task per arrival. 10k tasks
// stay live throughout (deadline 1 s, spacing 100 us). The two variants
// run the IDENTICAL incremental predicate; only the storage and expiry
// machinery differ — slot map + typed-timer expiries vs the PR-1
// unordered_map + closure-expiry store preserved in
// ReferenceUtilizationTracker. Both schedule on the same event heap.

constexpr Duration kChurnSpacing = 1e-4;
constexpr std::uint64_t kChurnWarmup = 20000;  // 2x the steady population
// Cycles per benchmark iteration: amortizes the harness loop overhead
// (~100 ns/iteration on this class of machine, comparable to the cycle
// under test) so items_per_second reflects the cycle itself.
constexpr std::uint64_t kChurnBatch = 16;

// Sparse churn task: three touched stages, contributions tiny enough that
// every arrival is admitted (the live count is set by spacing alone).
core::TaskSpec churn_task(std::uint64_t id) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = 1.0;
  spec.stages.resize(kSweepStages);
  spec.stages[0].compute = 2e-8;
  spec.stages[2].compute = 1e-8;
  spec.stages[4].compute = 3e-8;
  return spec;
}

void AdmissionChurnSlotMapStore(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kSweepStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kSweepStages));
  core::TaskSpec spec = churn_task(0);
  Time t = 0;
  std::uint64_t id = 1;
  for (std::uint64_t i = 0; i < kChurnWarmup; ++i) {
    t += kChurnSpacing;
    sim.run_until(t);
    spec.id = id++;
    if (!controller.try_admit(spec, t).admitted) std::abort();
  }
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < kChurnBatch; ++b) {
      t += kChurnSpacing;
      sim.run_until(t);
      spec.id = id++;
      benchmark::DoNotOptimize(controller.try_admit(spec, t));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kChurnBatch));
  state.counters["live_tasks"] = static_cast<double>(tracker.live_tasks());
}
BENCHMARK(AdmissionChurnSlotMapStore);

// The PR-1 fast path against the PR-1 store: the same incremental
// delta-LHS test (through the shared FeasibleRegion::admits_lhs predicate)
// followed by the same commit, but every admit allocates the map node and
// record vectors and every expiry is a type-erased closure on the binary
// heap.
struct ReferenceChurn {
  sim::Simulator sim;
  frap::testing::ReferenceUtilizationTracker tracker{sim, kSweepStages};
  core::FeasibleRegion region =
      core::FeasibleRegion::deadline_monotonic(kSweepStages);
  std::vector<double> scratch = std::vector<double>(kSweepStages, 0.0);

  bool try_admit(const core::TaskSpec& spec, Time now) {
    const double inv_d = util::safe_inv(spec.deadline);
    double delta = 0;
    bool saturated = false;
    for (std::size_t j = 0; j < kSweepStages; ++j) {
      const double c = spec.stages[j].compute * inv_d;
      if (c <= 0) continue;
      const double u_new = tracker.utilization(j) + c;
      if (u_new >= 1.0) {
        saturated = true;
        break;
      }
      delta += core::stage_delay_factor(u_new) - tracker.stage_lhs_term(j);
    }
    const double lhs_with =
        saturated ? util::kInf : tracker.cached_lhs() + delta;
    if (!core::FeasibleRegion::admits_lhs(lhs_with, region.bound())) {
      return false;
    }
    for (std::size_t j = 0; j < kSweepStages; ++j) {
      scratch[j] = spec.stages[j].compute * inv_d;
    }
    tracker.add(spec.id, scratch, now + spec.deadline);
    return true;
  }
};

void AdmissionChurnReferenceStore(benchmark::State& state) {
  ReferenceChurn churn;
  core::TaskSpec spec = churn_task(0);
  Time t = 0;
  std::uint64_t id = 1;
  for (std::uint64_t i = 0; i < kChurnWarmup; ++i) {
    t += kChurnSpacing;
    churn.sim.run_until(t);
    spec.id = id++;
    if (!churn.try_admit(spec, t)) std::abort();
  }
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < kChurnBatch; ++b) {
      t += kChurnSpacing;
      churn.sim.run_until(t);
      spec.id = id++;
      benchmark::DoNotOptimize(churn.try_admit(spec, t));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kChurnBatch));
  state.counters["live_tasks"] =
      static_cast<double>(churn.tracker.live_tasks());
}
BENCHMARK(AdmissionChurnReferenceStore);

// ------------------------------------------- shed churn A/B (ISSUE 5a) ---
// Same steady-state population, but tasks leave by explicit removal (shed)
// after a 1 s dwell instead of by expiry — deadline 2 s, so the expiry
// timer is still pending at removal time. Each removal cancels the
// earliest pending expiry, an O(log n) re-sift of the event heap on both
// stores.

constexpr std::uint64_t kShedLive = 10000;    // 1 s dwell / 100 us spacing
constexpr std::uint64_t kShedWarmup = 30000;  // past one full 2 s deadline

core::TaskSpec shed_task(std::uint64_t id) {
  core::TaskSpec spec = churn_task(id);
  spec.deadline = 2.0;  // removal at 1 s dwell always precedes expiry
  return spec;
}

void AdmissionShedChurnSlotMapStore(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kSweepStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kSweepStages));
  core::TaskSpec spec = shed_task(0);
  std::vector<std::uint64_t> ring(kShedLive, 0);
  Time t = 0;
  std::uint64_t id = 1;
  std::uint64_t cycle = 0;
  const auto one_cycle = [&] {
    t += kChurnSpacing;
    sim.run_until(t);
    const std::uint64_t slot = cycle % kShedLive;
    if (cycle >= kShedLive) tracker.remove_task(ring[slot]);
    ring[slot] = id;
    spec.id = id++;
    if (!controller.try_admit(spec, t).admitted) std::abort();
    ++cycle;
  };
  for (std::uint64_t i = 0; i < kShedWarmup; ++i) one_cycle();
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < kChurnBatch; ++b) one_cycle();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kChurnBatch));
  state.counters["live_tasks"] = static_cast<double>(tracker.live_tasks());
}
BENCHMARK(AdmissionShedChurnSlotMapStore);

void AdmissionShedChurnReferenceStore(benchmark::State& state) {
  ReferenceChurn churn;
  core::TaskSpec spec = shed_task(0);
  std::vector<std::uint64_t> ring(kShedLive, 0);
  Time t = 0;
  std::uint64_t id = 1;
  std::uint64_t cycle = 0;
  const auto one_cycle = [&] {
    t += kChurnSpacing;
    churn.sim.run_until(t);
    const std::uint64_t slot = cycle % kShedLive;
    if (cycle >= kShedLive) churn.tracker.remove_task(ring[slot]);
    ring[slot] = id;
    spec.id = id++;
    if (!churn.try_admit(spec, t)) std::abort();
    ++cycle;
  };
  for (std::uint64_t i = 0; i < kShedWarmup; ++i) one_cycle();
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < kChurnBatch; ++b) one_cycle();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kChurnBatch));
  state.counters["live_tasks"] =
      static_cast<double>(churn.tracker.live_tasks());
}
BENCHMARK(AdmissionShedChurnReferenceStore);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  frap::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::map<std::string, double> summary;
  const auto rate = [&](const char* name) {
    return reporter.counter_of(name, "items_per_second");
  };
  summary["fast_path_attempts_per_sec"] = rate("AdmissionFastPath");
  summary["reference_path_attempts_per_sec"] = rate("AdmissionReferencePath");
  summary["churn_slotmap_attempts_per_sec"] =
      rate("AdmissionChurnSlotMapStore");
  summary["churn_reference_attempts_per_sec"] =
      rate("AdmissionChurnReferenceStore");
  summary["churn_live_tasks"] =
      reporter.counter_of("AdmissionChurnSlotMapStore", "live_tasks");
  const double ref_churn = summary["churn_reference_attempts_per_sec"];
  summary["churn_speedup"] =
      ref_churn > 0 ? summary["churn_slotmap_attempts_per_sec"] / ref_churn
                    : 0;
  summary["shed_slotmap_attempts_per_sec"] =
      rate("AdmissionShedChurnSlotMapStore");
  summary["shed_reference_attempts_per_sec"] =
      rate("AdmissionShedChurnReferenceStore");
  const double ref_shed = summary["shed_reference_attempts_per_sec"];
  summary["shed_speedup"] =
      ref_shed > 0 ? summary["shed_slotmap_attempts_per_sec"] / ref_shed : 0;
  summary["batch_256_attempts_per_sec"] = rate("AdmissionBatchPath/256");
  if (!frap::benchjson::export_json("BENCH_admission.json", reporter,
                                    summary)) {
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
