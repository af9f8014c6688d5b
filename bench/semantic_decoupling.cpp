// Sec. 5 architectural claim: decouple SCHEDULING priority from SEMANTIC
// importance.
//
// "In the absence of an admission controller, one would have had to assign
//  task scheduling priorities inside the system according to their semantic
//  importance ... Such a semantic priority assignment is generally
//  suboptimal from a schedulability perspective."
//
// Demonstration: two classes share a two-stage pipeline at ~80% load —
// important Mission tasks with LONG deadlines (500 ms) and routine Status
// tasks with SHORT deadlines (50 ms). The whole mix is DM-schedulable.
//   * System A (the paper): DM scheduling + importance-aware shedding
//     admission — deadlines ordered correctly; importance only decides who
//     is shed at overload.
//   * System B (traditional): scheduling priority = semantic importance,
//     no admission — Mission tasks preempt Status tasks despite having 10x
//     the slack, so Status deadlines are missed even though the load is
//     feasible.
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
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

struct ClassStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
};

struct RunResult {
  ClassStats mission;
  ClassStats status;
};

constexpr double kMissionImportance = 10.0;
constexpr double kStatusImportance = 1.0;

RunResult run(bool paper_architecture, double load_scale,
              std::uint64_t seed) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, 2);
  pipeline::PipelineRuntime runtime(sim, 2, &tracker);

  if (paper_architecture) {
    runtime.set_priority_policy(pipeline::deadline_monotonic_policy());
  } else {
    // Semantic priority: more important = more urgent to the scheduler.
    runtime.set_priority_policy(
        [](const core::TaskSpec& s) { return -s.importance; });
  }

  core::AdmissionController admission(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(2));
  core::SheddingAdmissionController shedder(
      admission, [&](std::uint64_t id) { runtime.abort_task(id); });
  // Sound shedding: only victims that never executed (see ShedFilter docs).
  shedder.set_shed_filter([&](std::uint64_t id) {
    return !runtime.task_started_executing(id);
  });

  RunResult result;
  runtime.set_on_task_complete(
      [&](const core::TaskSpec& spec, Duration, bool missed) {
        auto& cls = spec.importance >= kMissionImportance ? result.mission
                                                          : result.status;
        ++cls.completed;
        if (missed) ++cls.missed;
      });

  util::Rng rng(seed);
  const Duration sim_end = 120.0;
  std::uint64_t next_id = 1;

  struct ClassCfg {
    double rate;
    Duration mean_c;
    Duration deadline;
    double importance;
    ClassStats* stats;
  };
  // Mission: 20 ms/stage mean at 15/s -> 30% load; Status: 5 ms/stage at
  // 100/s -> 50% load. Total 80%.
  std::vector<ClassCfg> classes{
      {15.0 * load_scale, 20 * kMilli, 500 * kMilli, kMissionImportance,
       &result.mission},
      {100.0 * load_scale, 5 * kMilli, 50 * kMilli, kStatusImportance,
       &result.status},
  };

  for (auto& cls : classes) {
    workload::schedule_renewal(
        sim, sim_end, [&] { return rng.exponential(1.0 / cls.rate); },
        [&](Time) {
          ++cls.stats->offered;
          core::TaskSpec spec;
          spec.id = next_id++;
          spec.deadline = cls.deadline;
          spec.importance = cls.importance;
          spec.stages.resize(2);
          spec.stages[0].compute = rng.exponential(cls.mean_c);
          spec.stages[1].compute = rng.exponential(cls.mean_c);
          bool start = true;
          if (paper_architecture) {
            start = shedder.try_admit(spec, sim.now()).admitted;
          }
          if (start) {
            ++cls.stats->admitted;
            runtime.start_task(spec, sim.now() + spec.deadline);
          }
        });
  }
  sim.run();
  return result;
}

std::string miss_pct(const ClassStats& s) {
  return s.completed == 0
             ? "-"
             : util::Table::fmt(100.0 * static_cast<double>(s.missed) /
                                    static_cast<double>(s.completed),
                                2);
}

}  // namespace

int main() {
  std::printf("Sec. 5: scheduling priority vs semantic importance\n");
  std::printf("(Mission: important, D = 500 ms; Status: routine, D = 50 "
              "ms; mix is DM-schedulable at base load)\n\n");

  util::Table table({"load %", "arch", "mission miss %", "status miss %",
                     "status accept %"});
  for (double scale : {1.0, 1.5, 2.0}) {
    const auto paper = run(true, scale, 7);
    const auto traditional = run(false, scale, 7);
    const int pct = static_cast<int>(80 * scale);
    table.add_row(
        {std::to_string(pct), "DM + shedding", miss_pct(paper.mission),
         miss_pct(paper.status),
         util::Table::fmt(100.0 *
                              static_cast<double>(paper.status.admitted) /
                              static_cast<double>(paper.status.offered),
                          1)});
    table.add_row(
        {std::to_string(pct), "semantic prio", miss_pct(traditional.mission),
         miss_pct(traditional.status), "100.0"});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: semantic-priority scheduling misses Status "
      "deadlines even at the feasible base load (Mission tasks with 10x "
      "the slack preempt them); DM + importance-aware shedding keeps every "
      "admitted task on time at every load and sheds only at overload.\n");
  return 0;
}
