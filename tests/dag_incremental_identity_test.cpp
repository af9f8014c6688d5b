// Incremental-vs-rewalk identity for the long-path evaluator (the PR-1
// discipline applied to DAG admission, docs/dag_bounds.md): the controller's
// incremental evaluation — cached per-stage f-terms + touched-resource
// deltas over the shape's dominant path profiles — must produce BIT-
// IDENTICAL lhs values and decisions to recomputing from an explicit
// utilization snapshot, at every attempt of a long churn run with arrivals,
// completions, and expiries interleaved. Decision-level agreement with the
// exact all-paths DP (no profile caps) is asserted alongside.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

constexpr std::size_t kResources = 4;
constexpr Duration kCeiling = 2.0;
constexpr double kStageCap = 0.3;

TEST(DagIncrementalIdentityTest, IncrementalMatchesSnapshotRewalkBitwise) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  pipeline::DagRuntime runtime(sim, kResources, &tracker);
  core::TaskGraphShapeRegistry registry;
  core::GraphAdmissionController controller(
      sim, tracker,
      core::LongPathEvaluator(std::vector<double>(kResources, kCeiling), {},
                              kStageCap));
  // Independent evaluator instance = the re-walk reference: no shared
  // scratch, fed only an explicit snapshot.
  core::LongPathEvaluator rewalk(std::vector<double>(kResources, kCeiling),
                                 {}, kStageCap);

  util::Rng rng(2024);
  std::uint64_t offered = 0;
  std::uint64_t admits = 0;
  std::function<void()> pump = [&] {
    if (offered >= 3000) return;
    sim.at(sim.now() + rng.exponential(1.0 / 80.0), [&] {
      ++offered;
      workload::RandomDagConfig cfg;
      cfg.kind = rng.bernoulli(0.5)
                     ? workload::RandomDagConfig::Kind::kLayered
                     : workload::RandomDagConfig::Kind::kErdosRenyi;
      cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(1, 12));
      cfg.num_resources = kResources;
      const auto spec = registry.canonicalize(workload::random_dag(
          rng, cfg, offered, rng.uniform(0.4, kCeiling)));

      // Snapshot BEFORE the attempt; build the with-task utilizations by
      // the exact arithmetic the incremental path uses (compute[t] * 1/D
      // added at each touched resource).
      const auto u_before = tracker.utilizations();
      auto u_with = u_before;
      const auto touched = spec.shape->touched_resources();
      const auto& compute = spec.demands->resource_compute;
      const double inv_d = util::safe_inv(spec.deadline);
      for (std::size_t t = 0; t < touched.size(); ++t) {
        u_with[touched[t]] += compute[t] * inv_d;
      }
      const double ref_before = rewalk.lhs_from_snapshot(spec, u_before);
      const double ref_with = rewalk.lhs_from_snapshot(spec, u_with);
      const bool exact_admit = core::FeasibleRegion::admits_lhs(
          rewalk.exact_lhs_from_snapshot(spec, u_with),
          core::LongPathEvaluator::kDelayBudget);

      const auto d = controller.try_admit(spec, sim.now());
      // Bit-identical values, not approximately-equal ones: both sides run
      // the same profile logic on the same doubles.
      ASSERT_EQ(d.lhs_before, ref_before) << "attempt " << offered;
      ASSERT_EQ(d.lhs_with_task, ref_with) << "attempt " << offered;
      ASSERT_EQ(d.admitted,
                core::FeasibleRegion::admits_lhs(
                    ref_with, core::LongPathEvaluator::kDelayBudget));
      // The profile fast path (caps, envelope, gray-band DP) never changes
      // the decision relative to the exact all-paths test.
      ASSERT_EQ(d.admitted, exact_admit) << "attempt " << offered;

      if (d.admitted) {
        ++admits;
        runtime.start_task(spec, sim.now() + spec.deadline);
      }
      pump();
    });
  };
  pump();
  sim.run();

  EXPECT_EQ(offered, 3000u);
  EXPECT_EQ(controller.attempts(), offered);
  // The run must exercise both verdicts or the identity claim is hollow.
  EXPECT_GT(admits, 100u);
  EXPECT_LT(admits, offered);
  EXPECT_GT(registry.size(), 100u);
  tracker.verify_lhs_cache(1e-9);
}

// Cached-value identity: the tracker f-terms the incremental path consumes
// are exactly stage_delay_factor(utilization(k)) at all times, including
// after sparse graph commits and expiries.
TEST(DagIncrementalIdentityTest, TrackerFTermsStayExactUnderGraphCommits) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::TaskGraphShapeRegistry registry;
  core::GraphAdmissionController controller(
      sim, tracker,
      core::LongPathEvaluator(std::vector<double>(kResources, kCeiling), {},
                              core::LongPathEvaluator::kNoStageCap));

  util::Rng rng(7);
  for (std::uint64_t i = 1; i <= 400; ++i) {
    workload::RandomDagConfig cfg;
    cfg.num_resources = kResources;
    cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const auto spec = registry.canonicalize(
        workload::random_dag(rng, cfg, i, rng.uniform(0.5, kCeiling)));
    (void)controller.try_admit(spec, sim.now());
    sim.run_until(sim.now() + 0.01);
    for (std::size_t k = 0; k < kResources; ++k) {
      EXPECT_EQ(tracker.stage_lhs_term(k),
                core::stage_delay_factor(tracker.utilization(k)));
    }
  }
  sim.run();
  tracker.verify_lhs_cache(1e-9);
}

}  // namespace
}  // namespace frap
