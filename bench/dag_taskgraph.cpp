// Ablation A5: Theorem 2 on arbitrary task graphs.
//
// Aperiodic tasks shaped like Fig. 3 (fork/join over four resources) are
// admitted with the per-task critical-path region d(f(U_ki)) <= 1 (the
// ratio-1 mode of the long-path evaluator at alpha = 1) and executed on the
// DAG runtime. Every task is canonicalized: all of them share one interned
// fork/join topology (and the chain variant one more), each with its own
// demands. Also compares against treating the same
// tasks as 4-stage chains (the pipeline-sum region): the critical-path
// region admits more because parallel branches do not add their delays.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

struct DagResult {
  double util = 0;  // average over the four resources
  double accept = 0;
  double miss = 0;
  std::uint64_t missed = 0;
  std::uint64_t completed = 0;
};

core::GraphTaskSpec make_fork_join(std::uint64_t id, Duration deadline,
                                   const std::vector<Duration>& c) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = deadline;
  auto demand = [](Duration v) {
    core::StageDemand d;
    d.compute = v;
    return d;
  };
  g.nodes = {core::GraphNode{0, demand(c[0])}, core::GraphNode{1, demand(c[1])},
             core::GraphNode{2, demand(c[2])}, core::GraphNode{3, demand(c[3])}};
  g.edges = {core::GraphEdge{0, 1}, core::GraphEdge{0, 2},
             core::GraphEdge{1, 3}, core::GraphEdge{2, 3}};
  return g;
}

// as_chain: evaluate the admission region as if the task were a serial
// 4-chain (same demands, same resources) — the conservative comparison.
DagResult run_dag(double load, bool as_chain, std::uint64_t seed) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, 4);
  pipeline::DagRuntime runtime(sim, 4, &tracker);
  core::GraphAdmissionController controller(
      sim, tracker, core::LongPathEvaluator::ratio_one(4, 1.0, {}));
  core::TaskGraphShapeRegistry shapes;

  util::Rng rng(seed);
  const Duration mean_c = 10 * kMilli;
  const double lambda = load / mean_c;
  const Duration mean_deadline = 100.0 * 4 * mean_c;  // resolution ~100
  const Duration sim_end = 120.0;

  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t next_id = 1;

  workload::schedule_renewal(
      sim, sim_end, [&] { return rng.exponential(1.0 / lambda); }, [&](Time) {
      ++offered;
      std::vector<Duration> c(4);
      for (auto& v : c) v = rng.exponential(mean_c);
      const Duration d = rng.uniform(0.5 * mean_deadline, 1.5 * mean_deadline);
      auto raw = make_fork_join(next_id++, d, c);
      const auto spec = shapes.canonicalize(raw);
      if (as_chain) {
        // Serialize the branches for the ADMISSION TEST only.
        raw.edges = {core::GraphEdge{0, 1}, core::GraphEdge{1, 2},
                     core::GraphEdge{2, 3}};
        const auto chain = shapes.canonicalize(raw);
        const auto decision = controller.try_admit(chain, sim.now());
        if (decision.admitted) {
          ++admitted;
          runtime.start_task(spec, sim.now() + spec.deadline);
        }
      } else {
        if (controller.try_admit(spec, sim.now()).admitted) {
          ++admitted;
          runtime.start_task(spec, sim.now() + spec.deadline);
        }
      }
      });
  sim.run();

  DagResult r;
  const auto u = runtime.stage_utilizations(10.0, sim_end);
  for (double v : u) r.util += v;
  r.util /= static_cast<double>(u.size());
  r.accept = offered ? static_cast<double>(admitted) /
                           static_cast<double>(offered)
                     : 0.0;
  r.miss = runtime.misses().ratio();
  r.missed = runtime.misses().hits();
  r.completed = runtime.completed();
  return r;
}

}  // namespace

int main() {
  std::printf("Ablation A5: Theorem 2 on Fig. 3 fork/join task graphs\n");
  std::printf(
      "(four resources; region = critical path of f(U); vs the same tasks\n"
      " admitted with a serial-chain region)\n\n");

  // Analytical region sizes (balanced utilizations): the fork/join boundary
  // solves 3 f(u) = 1 (Eq. 16 has three path terms) while the chain solves
  // 4 f(u) = 1 — the critical-path region tolerates higher per-resource
  // synthetic utilization.
  std::printf("balanced per-resource caps: fork/join f_inv(1/3) = %.4f vs "
              "chain f_inv(1/4) = %.4f\n\n",
              core::stage_delay_factor_inverse(1.0 / 3.0),
              core::stage_delay_factor_inverse(1.0 / 4.0));

  util::Table table({"load %", "util (crit-path)", "miss (crit-path)",
                     "accept (crit-path)", "util (chain)",
                     "accept (chain region)"});
  std::uint64_t missed = 0;
  for (int load_pct : {80, 120, 160, 200}) {
    const double load = load_pct / 100.0;
    const auto cp = run_dag(load, false, 21);
    const auto chain = run_dag(load, true, 21);
    missed += cp.missed + chain.missed;
    table.add_row({std::to_string(load_pct), util::Table::fmt(cp.util, 3),
                   util::Table::fmt(cp.miss, 4),
                   util::Table::fmt(cp.accept, 3),
                   util::Table::fmt(chain.util, 3),
                   util::Table::fmt(chain.accept, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: zero misses under the critical-path region; its "
      "instantaneous region is strictly larger than the serial-chain one "
      "(caps above), though with idle resets both saturate similar "
      "long-run utilization at high resolution.\n");
  // Both regions are sound, so any admitted task missing its deadline
  // fails the run.
  if (missed > 0) {
    std::fprintf(stderr, "error: %llu admitted tasks missed their deadline\n",
                 static_cast<unsigned long long>(missed));
    return 1;
  }
  return 0;
}
