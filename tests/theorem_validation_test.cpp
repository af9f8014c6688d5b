// Quantitative validation of Theorem 1: not only do admitted tasks meet
// their deadlines (miss ratio 0), their OBSERVED end-to-end response times
// never exceed the analytical worst-case delay computed from the peak
// synthetic utilizations the system actually reached.
//
// Synthetic utilization increases only at admission instants, so the
// running maximum over admission-time snapshots is the true peak. With
// U_max_j those peaks and D_max the largest admitted deadline, Theorem 1
// bounds every response by sum_j f(U_max_j) * D_max.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/admission.h"
#include "core/delay_bound.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "workload/pipeline_workload.h"

namespace frap {
namespace {

struct ValidationRun {
  std::vector<double> peak_utilization;
  Duration max_deadline = 0;
  Duration max_response = 0;
  std::uint64_t completed = 0;
  double max_instant_lhs = 0;  // max over admission instants of sum f(U_j)
};

ValidationRun run(std::size_t stages, double load, double resolution,
                  std::uint64_t seed) {
  const auto wl = workload::PipelineWorkloadConfig::balanced(
      stages, 10 * kMilli, load, resolution);
  sim::Simulator sim;
  workload::PipelineWorkloadGenerator gen(wl, seed);
  core::SyntheticUtilizationTracker tracker(sim, stages);
  pipeline::PipelineRuntime runtime(sim, stages, &tracker);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(stages));

  ValidationRun v;
  v.peak_utilization.assign(stages, 0.0);

  runtime.set_on_task_complete(
      [&](const core::TaskSpec&, Duration response, bool) {
        ++v.completed;
        v.max_response = std::max(v.max_response, response);
      });

  const Duration sim_end = 40.0;
  std::function<void()> pump = [&] {
    const Time t = sim.now() + gen.next_interarrival();
    if (t > sim_end) return;
    sim.at(t, [&] {
      const auto spec = gen.next_task();
      const auto decision = controller.try_admit(spec, sim.now());
      if (decision.admitted) {
        // Snapshot AFTER commit: includes this task's contribution.
        const auto u = tracker.utilizations();
        for (std::size_t j = 0; j < u.size(); ++j) {
          v.peak_utilization[j] = std::max(v.peak_utilization[j], u[j]);
        }
        v.max_instant_lhs = std::max(v.max_instant_lhs,
                                     decision.lhs_with_task);
        v.max_deadline = std::max(v.max_deadline, spec.deadline);
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();
  return v;
}

class TheoremValidationTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(TheoremValidationTest, ObservedDelaysRespectTheorem1Bound) {
  const auto [stages, load] = GetParam();
  const auto v = run(stages, load, 50.0, 12345);
  ASSERT_GT(v.completed, 100u);

  // Instantaneous invariant: the controller never let sum f(U_j(t))
  // exceed the bound of 1 at any admission instant (utilization only
  // increases at admissions, so these instants witness the global max).
  EXPECT_LE(v.max_instant_lhs, 1.0 + 1e-9);

  // Theorem 1 delay bound from the componentwise utilization peaks. Note
  // the peaks occur at different times, so this bound is looser than the
  // per-instant region (it may exceed D_max); it must still be finite and
  // dominate every realized response.
  const Duration bound =
      core::predict_pipeline_delay(v.peak_utilization, v.max_deadline);
  ASSERT_LT(bound, 1e18);
  EXPECT_LE(v.max_response, bound + 1e-9)
      << "stages=" << stages << " load=" << load;
  // With zero misses, responses are also bounded by the max deadline — the
  // sharp per-task form of the theorem.
  EXPECT_LE(v.max_response, v.max_deadline + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremValidationTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values(0.9, 1.5)));

TEST(TheoremValidationTest, BoundIsNotVacuous) {
  // The bound should be within the same order of magnitude as observed
  // delays at high load — check it is not astronomically loose.
  const auto v = run(2, 1.5, 50.0, 999);
  const Duration bound =
      core::predict_pipeline_delay(v.peak_utilization, v.max_deadline);
  EXPECT_GT(v.max_response, bound * 0.01);
}

}  // namespace
}  // namespace frap
