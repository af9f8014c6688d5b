// Response-time distribution under admission control.
//
// Beyond the binary miss/no-miss guarantee, operators care about the full
// latency distribution. This bench reports mean / p50 / p95 / p99 / max
// end-to-end response (normalized by the task's deadline) across loads,
// with and without admission control. Expected shape: with admission the
// normalized response never reaches 1.0 (no misses) and the tail is
// insensitive to overload (excess load is rejected, not queued); without
// admission the p99 blows past the deadline as load exceeds 1.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "util/math.h"
#include "core/synthetic_utilization.h"
#include "metrics/histogram.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "workload/pipeline_workload.h"
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

struct TailResult {
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

TailResult run(double load, bool admission_on, std::uint64_t seed) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      2, 10 * kMilli, load, 100.0);
  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, seed);
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));

  // Histogram of response/deadline in [0, 3).
  metrics::Histogram hist(0.0, 3.0, 3000);
  double max_norm = 0;
  double sum_norm = 0;
  std::uint64_t count = 0;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec& spec, Duration response, bool) {
        const double norm = util::safe_div(response, spec.deadline);
        hist.add(norm);
        max_norm = std::max(max_norm, norm);
        sum_norm += norm;
        ++count;
      });

  const Duration sim_end = 150.0;
  workload::schedule_renewal(
      sim, sim_end, [&] { return gen.next_interarrival(); }, [&](Time) {
      const auto spec = gen.next_task();
      const bool start =
          !admission_on || controller.try_admit(spec, sim.now()).admitted;
      if (start) runtime.start_task(spec, sim.now() + spec.deadline);
      });
  sim.run();

  TailResult r;
  r.mean = count ? sum_norm / static_cast<double>(count) : 0;
  r.p50 = hist.quantile(0.50);
  r.p95 = hist.quantile(0.95);
  r.p99 = hist.quantile(0.99);
  r.max = max_norm;
  return r;
}

}  // namespace

int main() {
  std::printf("End-to-end response distribution (response / deadline)\n");
  std::printf("(two-stage pipeline, resolution 100; values >= 1.0 are "
              "deadline misses)\n\n");

  util::Table table({"load %", "admission", "mean", "p50", "p95", "p99",
                     "max"});
  for (int load_pct : {80, 120, 160, 200}) {
    const double load = load_pct / 100.0;
    const auto on = run(load, true, 61);
    const auto off = run(load, false, 61);
    table.add_row({std::to_string(load_pct), "on",
                   util::Table::fmt(on.mean, 3), util::Table::fmt(on.p50, 3),
                   util::Table::fmt(on.p95, 3), util::Table::fmt(on.p99, 3),
                   util::Table::fmt(on.max, 3)});
    table.add_row({std::to_string(load_pct), "off",
                   util::Table::fmt(off.mean, 3),
                   util::Table::fmt(off.p50, 3), util::Table::fmt(off.p95, 3),
                   util::Table::fmt(off.p99, 3),
                   util::Table::fmt(off.max, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: with admission, max < 1.0 at every load and the "
      "tail saturates; without admission the tail crosses 1.0 (misses) "
      "once load exceeds capacity and grows unboundedly.\n");
  return 0;
}
