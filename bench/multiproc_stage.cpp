// Exploration bench: multiprocessor stages (toward the liquid-task
// multiprocessor bound of the authors' companion work).
//
// One stage backed by a pool of m processors under global preemptive DM.
// Admission is threshold-based on the pool's synthetic utilization:
// admit iff U(t) + C/D <= theta * m, with the usual deadline decrement and
// idle reset. For each m we sweep theta and report the largest value with
// ZERO observed misses (two seeds), i.e. the empirical schedulable
// frontier, normalized per processor.
//
// Expected shape: at every m the frontier sits WELL ABOVE the analytic
// sufficient bound 2 - sqrt(2) ~= 0.586 (the bound is worst-case; a random
// workload's empirical frontier is higher) and is roughly flat per
// processor for this workload.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/arrival_scheduler.h"

namespace {

using namespace frap;

struct PoolRun {
  bool any_miss = false;
  double pool_util = 0;
  double accept = 0;
};

struct Live {
  std::unique_ptr<sched::Job> job;
  Time deadline_at;
  std::uint64_t id;
};

// Typed listener (sched/stage_server.h): departure bookkeeping + deadline
// check on completion, idle reset on drain.
struct PoolObserver final : sched::StageListener {
  sim::Simulator* sim = nullptr;
  core::SyntheticUtilizationTracker* tracker = nullptr;
  std::vector<std::unique_ptr<Live>>* live = nullptr;
  PoolRun* result = nullptr;

  void on_job_complete(sched::StageServer&, sched::Job& j) override {
    tracker->mark_departed(j.id, 0);
    // Find the live record to check the deadline.
    for (auto it = live->begin(); it != live->end(); ++it) {
      if ((*it)->id == j.id) {
        if (sim->now() > (*it)->deadline_at + 1e-12) result->any_miss = true;
        live->erase(it);
        break;
      }
    }
  }

  void on_stage_idle(sched::StageServer&) override {
    tracker->on_stage_idle(0);
  }
};

PoolRun run_pool(std::size_t m, double theta, std::uint64_t seed) {
  sim::Simulator sim;
  sched::StageServer pool(sim, "pool", sched::fixed_priority_policy(), m);
  core::SyntheticUtilizationTracker tracker(sim, 1);

  auto live = std::make_shared<std::vector<std::unique_ptr<Live>>>();

  PoolRun result;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;

  PoolObserver observer;
  observer.sim = &sim;
  observer.tracker = &tracker;
  observer.live = live.get();
  observer.result = &result;
  pool.set_listener(&observer);

  util::Rng rng(seed);
  const Duration mean_c = 10 * kMilli;
  const double lambda = 2.0 * static_cast<double>(m) / mean_c;  // 200% load
  const Duration sim_end = 60.0;
  std::uint64_t next_id = 1;

  workload::schedule_renewal(
      sim, sim_end, [&] { return rng.exponential(1.0 / lambda); }, [&](Time) {
      ++offered;
      const Duration c = rng.exponential(mean_c);
      const Duration d = rng.uniform(0.25, 0.75);  // resolution ~50
      const double contribution = c / d;
      if (tracker.utilization(0) + contribution <=
          theta * static_cast<double>(m)) {
        ++admitted;
        const std::uint64_t id = next_id++;
        tracker.add(id, std::vector<double>{contribution}, sim.now() + d);
        auto rec = std::make_unique<Live>();
        rec->id = id;
        rec->deadline_at = sim.now() + d;
        rec->job = std::make_unique<sched::Job>(
            id, d, std::vector<sched::Segment>{
                       sched::Segment{c, sched::kNoLock}});
        pool.submit(*rec->job);
        live->push_back(std::move(rec));
      }
      });
  sim.run();

  result.pool_util = pool.utilization(5.0, sim_end);
  result.accept = offered ? static_cast<double>(admitted) /
                                static_cast<double>(offered)
                          : 0;
  return result;
}

// Largest theta (on a 0.02 grid) with zero misses across two seeds.
double empirical_frontier(std::size_t m, double& util_at_frontier) {
  double best = 0;
  util_at_frontier = 0;
  for (double theta = 0.50; theta <= 0.981; theta += 0.02) {
    const auto a = run_pool(m, theta, 11);
    const auto b = run_pool(m, theta, 23);
    if (a.any_miss || b.any_miss) break;
    best = theta;
    util_at_frontier = (a.pool_util + b.pool_util) / 2;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("Multiprocessor stage exploration (global preemptive DM on a "
              "pool of m processors)\n");
  std::printf("empirical zero-miss admission threshold theta* (synthetic "
              "utilization / m), offered load 200%%\n\n");

  util::Table table({"m", "theta* (empirical)", "pool util at theta*"});
  for (std::size_t m : {1u, 2u, 4u, 8u}) {
    double util = 0;
    const double theta = empirical_frontier(m, util);
    table.add_row({std::to_string(m), util::Table::fmt(theta, 2),
                   util::Table::fmt(util, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nanalytic sufficient bound at m = 1: %.4f (2 - sqrt 2); expected "
      "shape: theta* well above that analytic worst case at every m (the "
      "bound is sufficient, not necessary) and roughly flat per processor "
      "for this workload — with idle resets the threshold, not the pool "
      "size, is the binding constraint.\n",
      0.5857864376);
  return 0;
}
