// DAG admission bound bench (docs/dag_bounds.md). Five sweeps over
// randomized Erdős–Rényi DAGs of 100 / 1k / 10k nodes:
//
//   * DagAdmitIncremental/N: attempts/sec of the interned long-path fast
//     path — cached per-stage f-terms + profile dot products, O(touched
//     resources), independent of node count. The probe is rejected at the
//     measured state (path multiplicity x f(0.25) > 1), so the full
//     evaluation runs but nothing commits.
//   * DagAdmitGrayBand/N: evaluations/sec of the same probe with the
//     background load just under the budget, so both path values land in
//     the gray band (kept profiles under budget, envelope over it) and the
//     path-cap tier settles them without the O(V + E) DP.
//   * DagAdmitRewalk/N: the same decision recomputed the pre-interning way
//     — snapshot every utilization into a reused buffer, walk all N nodes,
//     run the exact DP (exact_lhs_from_snapshot, allocation-free when
//     warm). O(V + E) per attempt; the acceptance criterion is incremental
//     >= 5x this at N = 10k.
//   * DagExactDp/N: TaskGraphShape::longest_path_weight alone on the probe
//     shape: the cost of the evaluator's last tier, the DP over the
//     shape's label-sequence quotient. Counters carry the shape's and the
//     quotient's node and edge counts.
//   * DagAdmittedLoad/N: an overloaded arrival stream committed through the
//     long-path controller (expiries via the simulator), with the
//     critical-path test at the worst-case alpha (the evaluator's ratio-1
//     mode) evaluated pointwise on the same states. Counters pin the
//     admit-count gain, that dominance violations stay at zero (every crit
//     admit is a long-path admit), and which evaluator tier settled each
//     path value.
//
// Writes BENCH_dag.json (override with FRAP_BENCH_JSON) with attempts/sec
// per variant, the incremental speedups, the per-size admit gains, the
// per-size tier shares, and the exact DP's ns per call with the quotient's
// size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace {

using namespace frap;

constexpr std::size_t kResources = 8;
constexpr Duration kCeiling = 1.0;       // D̂_k for every resource
constexpr Duration kDeadlineMin = 0.5;   // load-sweep deadlines in [0.5, 1]
constexpr double kAlpha = kDeadlineMin / kCeiling;

// ER config sized so edge count stays O(4N) at every N: long paths exist
// (the re-walk has real DP work) without quadratic edge blowup at 10k.
workload::RandomDagConfig sized_config(std::size_t nodes) {
  workload::RandomDagConfig cfg;
  cfg.kind = workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = nodes;
  cfg.num_resources = kResources;
  cfg.edge_prob = std::min(0.25, 4.0 / static_cast<double>(nodes));
  // Total compute ~0.02 per task regardless of node count, so the load
  // sweep sees comparable per-task contributions at every size.
  cfg.min_compute = 0.01 / static_cast<double>(nodes);
  cfg.max_compute = 0.03 / static_cast<double>(nodes);
  return cfg;
}

// Canonicalized specs share interned shapes owned by the fixture registry;
// built lazily ONCE per size (10k-node generation is the expensive part)
// and reused across benchmark re-entries.
struct SizedFixture {
  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> pool;  // load sweep, random deadlines
  core::GraphTaskSpec probe;              // deadline = ceiling
};

SizedFixture& fixture_for(std::size_t nodes) {
  static std::map<std::size_t, std::unique_ptr<SizedFixture>> fixtures;
  auto& slot = fixtures[nodes];
  if (slot) return *slot;
  slot = std::make_unique<SizedFixture>();
  util::Rng rng(1000 + static_cast<std::uint64_t>(nodes));
  const auto cfg = sized_config(nodes);
  const std::size_t pool_size = nodes <= 100 ? 64 : (nodes <= 1000 ? 16 : 6);
  slot->pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    slot->pool.push_back(slot->registry.canonicalize(workload::random_dag(
        rng, cfg, i + 1, rng.uniform(kDeadlineMin, kCeiling))));
  }
  slot->probe =
      slot->registry.canonicalize(workload::random_dag(rng, cfg, 0, kCeiling));
  return *slot;
}

core::LongPathEvaluator make_evaluator() {
  return core::LongPathEvaluator(std::vector<double>(kResources, kCeiling),
                                 {}, kAlpha);
}

// Background load making the probe's path value exceed the budget: every
// resource at u = 0.25 gives f = 0.2917 per node, and any surviving path
// spans >= 4 nodes at these sizes, so the test runs in full and rejects
// without committing — constant state across iterations.
void prefill(core::SyntheticUtilizationTracker& tracker) {
  double add[kResources];
  for (double& a : add) a = 0.25;
  tracker.add(1, add, 1e3);
}

void DagAdmitIncremental(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto& fixture = fixture_for(nodes);
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::GraphAdmissionController controller(sim, tracker, make_evaluator());
  prefill(tracker);
  core::GraphTaskSpec spec = fixture.probe;  // one copy; only the id churns
  std::uint64_t id = 1'000'000;
  for (auto _ : state) {
    spec.id = id++;
    benchmark::DoNotOptimize(controller.try_admit(spec, sim.now()));
  }
  if (controller.admitted() != 0) {
    state.SkipWithError("probe unexpectedly admitted; state drifted");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(DagAdmitIncremental)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Uniform background load at which the probe's heaviest path sits at 90%
// of the budget before the probe's own contribution.
void prefill_gray_band(core::SyntheticUtilizationTracker& tracker,
                       const core::TaskGraphShape& shape) {
  const double u = core::stage_delay_factor_inverse(
      0.9 / static_cast<double>(shape.max_path_nodes()));
  double add[kResources];
  for (double& a : add) a = u;
  tracker.add(1, add, 1e3);
}

void DagAdmitGrayBand(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto& fixture = fixture_for(nodes);
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::LongPathEvaluator eval = make_evaluator();
  prefill_gray_band(tracker, *fixture.probe.shape);
  const core::GraphTaskSpec& spec = fixture.probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(spec, tracker));
  }
  // Two path values per evaluation; the bench times the path-cap tier only
  // if that tier settled every one of them.
  if (eval.tier_counts().path_cap_admit !=
      2 * static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("gray-band probe not settled by the path-cap tier");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(DagAdmitGrayBand)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void DagAdmitRewalk(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto& fixture = fixture_for(nodes);
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  prefill(tracker);
  core::LongPathEvaluator rewalk = make_evaluator();
  core::GraphTaskSpec spec = fixture.probe;
  std::uint64_t id = 2'000'000;
  const double inv_d = util::safe_inv(spec.deadline);
  std::vector<double> u(kResources);
  for (auto _ : state) {
    spec.id = id++;
    // The pre-interning recipe per attempt: full snapshot, before/with
    // values via the exact all-nodes walk + DP.
    tracker.utilizations(u);
    const double before = rewalk.exact_lhs_from_snapshot(spec, u);
    const auto resource = spec.shape->node_resource();
    const auto& compute = spec.demands->node_compute;
    for (std::size_t v = 0; v < resource.size(); ++v) {
      u[resource[v]] += compute[v] * inv_d;
    }
    const double with_task = rewalk.exact_lhs_from_snapshot(spec, u);
    benchmark::DoNotOptimize(before);
    benchmark::DoNotOptimize(with_task);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(DagAdmitRewalk)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void DagExactDp(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const core::TaskGraphShape& shape = *fixture_for(nodes).probe.shape;
  // A few weight vectors in turn, so no two consecutive calls repeat.
  util::Rng rng(17);
  std::vector<std::vector<double>> weights(8, std::vector<double>(kResources));
  for (auto& w : weights) {
    for (double& x : w) x = rng.uniform(0.0, 1.0);
  }
  std::vector<double> scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shape.longest_path_weight(weights[next], scratch));
    next = (next + 1) % weights.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(shape.num_nodes());
  state.counters["edges"] = static_cast<double>(shape.num_edges());
  state.counters["quotient_nodes"] =
      static_cast<double>(shape.quotient_num_nodes());
  state.counters["quotient_edges"] =
      static_cast<double>(shape.quotient_num_edges());
}
BENCHMARK(DagExactDp)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void DagAdmittedLoad(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto& fixture = fixture_for(nodes);
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kResources);
  core::GraphAdmissionController controller(sim, tracker, make_evaluator());
  auto crit_eval = core::LongPathEvaluator::ratio_one(kResources, kAlpha, {});
  // Per-entry working copies so the measured loop mutates ids only.
  std::vector<core::GraphTaskSpec> specs(fixture.pool.begin(),
                                         fixture.pool.end());
  util::Rng rng(static_cast<std::uint64_t>(nodes) + 7);
  const double lambda = 1000.0;  // arrivals/sec: overload, the region binds
  std::uint64_t id = 3'000'000;
  std::uint64_t offered = 0, long_admits = 0, crit_admits = 0, crit_only = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    sim.run_until(sim.now() + rng.exponential(1.0 / lambda));
    auto& spec = specs[next];
    next = (next + 1) % specs.size();
    spec.id = id++;
    ++offered;

    // Critical-path test at worst-case alpha, pointwise (no commit).
    auto u = tracker.utilizations();
    const auto add = spec.resource_contributions(kResources);
    for (std::size_t k = 0; k < kResources; ++k) u[k] += add[k];
    const bool crit_admit = core::FeasibleRegion::admits_lhs(
        crit_eval.lhs_from_snapshot(spec, u),
        core::LongPathEvaluator::kDelayBudget);

    const auto d = controller.try_admit(spec, sim.now());
    if (d.admitted) ++long_admits;
    if (crit_admit) {
      ++crit_admits;
      if (!d.admitted) ++crit_only;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["offered"] = static_cast<double>(offered);
  state.counters["long_admits"] = static_cast<double>(long_admits);
  state.counters["crit_admits"] = static_cast<double>(crit_admits);
  state.counters["crit_only"] = static_cast<double>(crit_only);
  state.counters["admit_gain"] =
      crit_admits > 0 ? static_cast<double>(long_admits) /
                            static_cast<double>(crit_admits)
                      : 0.0;
  // Share of path values each evaluator tier settled.
  const auto& tiers = controller.long_path_evaluator()->tier_counts();
  const auto values = static_cast<double>(std::max<std::uint64_t>(
      1, tiers.complete + tiers.envelope_admit + tiers.kept_reject +
             tiers.path_cap_admit + tiers.dp));
  const auto share = [values](std::uint64_t n) {
    return static_cast<double>(n) / values;
  };
  state.counters["complete_share"] = share(tiers.complete);
  state.counters["envelope_share"] = share(tiers.envelope_admit);
  state.counters["kept_share"] = share(tiers.kept_reject);
  state.counters["path_cap_share"] = share(tiers.path_cap_admit);
  state.counters["dp_share"] = share(tiers.dp);
}
BENCHMARK(DagAdmittedLoad)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  frap::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::map<std::string, double> summary;
  for (const char* n : {"100", "1000", "10000"}) {
    const std::string size(n);
    const double inc = reporter.counter_of("DagAdmitIncremental/" + size,
                                           "items_per_second");
    const double rew =
        reporter.counter_of("DagAdmitRewalk/" + size, "items_per_second");
    summary["incremental_attempts_per_sec_" + size] = inc;
    summary["rewalk_attempts_per_sec_" + size] = rew;
    // Acceptance: >= 5 at size 10000.
    summary["incremental_speedup_" + size] = rew > 0 ? inc / rew : 0;
    summary["admit_gain_" + size] =
        reporter.counter_of("DagAdmittedLoad/" + size, "admit_gain");
    summary["dominance_violations_" + size] =
        reporter.counter_of("DagAdmittedLoad/" + size, "crit_only");
    summary["gray_band_attempts_per_sec_" + size] = reporter.counter_of(
        "DagAdmitGrayBand/" + size, "items_per_second");
    const std::string dp = "DagExactDp/" + size;
    const double dp_rate = reporter.counter_of(dp, "items_per_second");
    summary["exact_dp_ns_" + size] = dp_rate > 0 ? 1e9 / dp_rate : 0;
    for (const char* key :
         {"nodes", "edges", "quotient_nodes", "quotient_edges"}) {
      summary[std::string(key) + "_" + size] = reporter.counter_of(dp, key);
    }
    for (const char* tier :
         {"complete", "envelope", "kept", "path_cap", "dp"}) {
      const std::string key = std::string(tier) + "_share";
      summary[key + "_" + size] =
          reporter.counter_of("DagAdmittedLoad/" + size, key);
    }
  }
  if (!frap::benchjson::export_json("BENCH_dag.json", reporter, summary)) {
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
