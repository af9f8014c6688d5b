// Golden-model cross-validation of the StageServer.
//
// An independent reference implementation of preemptive fixed-priority
// scheduling (a simple sweep over arrival/completion instants, written with
// none of the server's event machinery) computes completion times for
// randomized job sets; the StageServer must reproduce them exactly. This
// catches bookkeeping bugs (remaining-time math, tie-breaking, preemption
// edges) that individual timeline tests might miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "callback_listener.h"
#include "sched/stage_server.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::sched {
namespace {

using frap::testing::CallbackListener;

struct JobSpec {
  std::uint64_t id;
  Time arrival;
  PriorityValue priority;
  Duration length;
};

// Reference scheduler: advances from time point to time point, always
// running the highest-priority pending job (FIFO by arrival order among
// equal priorities, matching the server's submit-order tie-break).
std::map<std::uint64_t, Time> reference_schedule(std::vector<JobSpec> jobs) {
  // Stable order: by arrival time, then by original index (submit order).
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     return a.arrival < b.arrival;
                   });
  struct Pending {
    const JobSpec* spec;
    Duration remaining;
    std::size_t submit_seq;
  };
  std::map<std::uint64_t, Time> completion;
  std::vector<Pending> pending;
  std::size_t next = 0;
  Time now = 0;

  while (next < jobs.size() || !pending.empty()) {
    if (pending.empty()) {
      now = std::max(now, jobs[next].arrival);
    }
    // Admit all arrivals at or before `now`.
    while (next < jobs.size() && jobs[next].arrival <= now) {
      pending.push_back(Pending{&jobs[next], jobs[next].length, next});
      ++next;
    }
    if (pending.empty()) continue;
    // Pick highest priority (lowest value), FIFO on ties.
    auto best = std::min_element(
        pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          if (a.spec->priority != b.spec->priority) {
            return a.spec->priority < b.spec->priority;
          }
          return a.submit_seq < b.submit_seq;
        });
    // Run it until it completes or the next arrival.
    const Time next_arrival =
        next < jobs.size() ? jobs[next].arrival
                           : std::numeric_limits<Time>::infinity();
    const Time finish = now + best->remaining;
    if (finish <= next_arrival) {
      completion[best->spec->id] = finish;
      now = finish;
      pending.erase(best);
    } else {
      best->remaining -= next_arrival - now;
      now = next_arrival;
    }
  }
  return completion;
}

class SchedulerGoldenTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerGoldenTest, ServerMatchesReferenceOnRandomJobSets) {
  util::Rng rng(GetParam());
  const int num_jobs = 60;

  std::vector<JobSpec> jobs;
  Time t = 0;
  for (int i = 0; i < num_jobs; ++i) {
    t += rng.exponential(1.0);
    jobs.push_back(JobSpec{
        static_cast<std::uint64_t>(i + 1), t,
        // Few distinct priorities to exercise ties; integral values avoid
        // fp-equality surprises in the comparison itself.
        static_cast<PriorityValue>(rng.uniform_int(1, 4)),
        rng.exponential(1.5)});
  }

  const auto expected = reference_schedule(jobs);

  sim::Simulator sim;
  StageServer server(sim, "golden");
  std::map<std::uint64_t, Time> actual;
  CallbackListener listener([&](Job& j) { actual[j.id] = sim.now(); });
  server.set_listener(&listener);
  std::vector<std::unique_ptr<Job>> storage;
  for (const auto& spec : jobs) {
    storage.push_back(std::make_unique<Job>(
        spec.id, spec.priority,
        std::vector<Segment>{Segment{spec.length, kNoLock}}));
    Job* job = storage.back().get();
    sim.at(spec.arrival, [&server, job] { server.submit(*job); });
  }
  sim.run();

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [id, finish] : expected) {
    ASSERT_TRUE(actual.count(id)) << "job " << id << " never completed";
    EXPECT_NEAR(actual[id], finish, 1e-7) << "job " << id;
  }

  // Conservation: total busy time equals total work.
  Duration total_work = 0;
  for (const auto& j : jobs) total_work += j.length;
  EXPECT_NEAR(server.meter().busy_time(0.0, sim.now() + 1.0), total_work,
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerGoldenTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace frap::sched
