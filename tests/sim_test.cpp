#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::sim {
namespace {

// ------------------------------------------------------------ EventQueue ---

// Records the payload of every typed timer it receives, in firing order.
struct Recorder final : TimerClient {
  void on_timer(std::uint64_t payload) override { fired.push_back(payload); }
  std::vector<std::uint64_t> fired;
};

void drain(EventQueue& q) {
  while (!q.empty()) q.pop().fire();
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop().fire();
  EXPECT_FALSE(q.cancel(id));  // already fired: no-op
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  const EventId id = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, StaleHandleIsRejectedAfterNodeReuse) {
  EventQueue q;
  Recorder r;
  const EventId id = q.push_timer(5.0, &r, 42);
  ASSERT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  // The freed node is reused by the next push; the old handle must not
  // alias the new event.
  const EventId id2 = q.push_timer(6.0, &r, 43);
  EXPECT_NE(id, id2);
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
  ASSERT_TRUE(q.pending(id2));
  drain(q);
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{43}));
  EXPECT_FALSE(q.pending(id2));
}

TEST(EventQueueTest, CloseTimersFireInTimeThenSeqOrder) {
  EventQueue q;
  Recorder r;
  // Four timers within 50us at three distinct exact times, scheduled out of
  // order; the two at equal time must fire in scheduling order.
  q.push_timer(0.000050, &r, 2);
  q.push_timer(0.000020, &r, 1);
  q.push_timer(0.000050, &r, 3);
  q.push_timer(0.000010, &r, 0);
  drain(q);
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(EventQueueTest, NextTimeMatchesPopWithoutMutating) {
  EventQueue q;
  Recorder r;
  q.push_timer(1.5, &r, 20);
  q.push_timer(0.25, &r, 10);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.25);
  // Repeated reads are stable and do not consume.
  EXPECT_DOUBLE_EQ(q.next_time(), 0.25);
  EXPECT_EQ(q.size(), 2u);
  EventQueue::Event e = q.pop();
  e.fire();
  EXPECT_DOUBLE_EQ(e.time, 0.25);
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{10}));
  EXPECT_DOUBLE_EQ(q.next_time(), 1.5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, TimersAcrossScalesMatchSortedReference) {
  EventQueue q;
  Recorder r;
  util::Rng rng(123);
  std::vector<std::pair<Time, std::uint64_t>> expect;
  std::vector<EventId> ids;
  for (std::uint64_t s = 1; s <= 4000; ++s) {
    // Near, mid, far and very far times in one queue.
    const double scale = std::vector<double>{0.01, 1.0, 300.0, 5000.0}[
        static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const Time t = rng.uniform(0.0, scale);
    ids.push_back(q.push_timer(t, &r, s));
    expect.emplace_back(t, s);
  }
  // Cancel a third of them.
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(q.cancel(ids[i]));
    expect[i].second = 0;  // tombstone
  }
  std::erase_if(expect, [](const auto& p) { return p.second == 0; });
  std::sort(expect.begin(), expect.end());
  std::vector<Time> times;
  while (!q.empty()) {
    EventQueue::Event e = q.pop();
    e.fire();
    times.push_back(e.time);
  }
  ASSERT_EQ(r.fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_DOUBLE_EQ(times[i], expect[i].first) << i;
    EXPECT_EQ(r.fired[i], expect[i].second) << i;
  }
}

// ------------------------------------------------------------- Simulator ---

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<Time> seen;
  sim.at(1.5, [&] { seen.push_back(sim.now()); });
  sim.at(0.5, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<Time>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  Time fired = -1;
  sim.at(2.0, [&] {
    sim.after(3.0, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired, 5.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int count = 0;
  sim.at(1.0, [&] { ++count; });
  sim.at(2.0, [&] { ++count; });
  sim.at(3.0, [&] { ++count; });
  sim.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.after(1.0, step);
  };
  sim.at(0.0, step);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.at(2.0, [&] { fired = true; });
  sim.at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepExecutesBoundedEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    sim.at(static_cast<Time>(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.step(2), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.step(10), 3u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.step(), 0u);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, SameTimeEventsFifoAcrossScheduling) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1.0, [&] { order.push_back(0); });
  sim.at(1.0, [&] {
    order.push_back(1);
    // Scheduled at the same instant from within an event: runs after
    // already-queued same-time events.
    sim.at(1.0, [&] { order.push_back(3); });
  });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Fuzz the event queue against a sorted (time, seq) reference: one random
// stream mixes closures and typed timers, cancels of live, fired, cancelled
// and stale handles, and pops. Every pop must fire the reference's earliest
// event, every cancel must report whether the event was still pending, and
// size, next_time and pending must agree after each step.
TEST(EventQueueFuzzTest, MatchesReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    EventQueue q;
    Recorder r;  // closures and timers both log their tag here
    struct Ref {
      Time time;
      std::uint64_t seq;
      EventId id;
      std::uint64_t tag;
    };
    std::vector<Ref> pending;
    std::vector<EventId> all_ids;
    std::uint64_t seq = 0;
    const auto earliest = [&] {
      return std::min_element(
          pending.begin(), pending.end(), [](const Ref& a, const Ref& b) {
            if (a.time != b.time) return a.time < b.time;
            return a.seq < b.seq;
          });
    };
    const auto is_pending = [&](EventId id) {
      return std::any_of(pending.begin(), pending.end(),
                         [&](const Ref& x) { return x.id == id; });
    };

    for (int step = 0; step < 2000; ++step) {
      const auto op = rng() % 10;
      if (op < 5) {  // push: half closures, half typed timers
        const Time t = static_cast<double>(rng() % 200);
        const std::uint64_t tag = seq;
        const EventId id =
            (rng() % 2 == 0)
                ? q.push(t, [&r, tag] { r.fired.push_back(tag); })
                : q.push_timer(t, &r, tag);
        ASSERT_FALSE(is_pending(id)) << "seed " << seed;
        pending.push_back(Ref{t, seq++, id, tag});
        all_ids.push_back(id);
      } else if (op < 7 && !all_ids.empty()) {  // cancel, maybe stale
        const EventId victim = all_ids[rng() % all_ids.size()];
        const bool live = is_pending(victim);
        ASSERT_EQ(q.pending(victim), live) << "seed " << seed;
        ASSERT_EQ(q.cancel(victim), live) << "seed " << seed;
        std::erase_if(pending, [&](const Ref& x) { return x.id == victim; });
        ASSERT_FALSE(q.pending(victim));
      } else if (!q.empty()) {  // pop
        const auto best = earliest();
        ASSERT_NE(best, pending.end());
        EventQueue::Event e = q.pop();
        e.fire();
        ASSERT_DOUBLE_EQ(e.time, best->time) << "seed " << seed;
        ASSERT_EQ(r.fired.back(), best->tag) << "seed " << seed;
        ASSERT_FALSE(q.pending(best->id));
        pending.erase(best);
      }
      ASSERT_EQ(q.size(), pending.size()) << "seed " << seed;
      ASSERT_EQ(q.empty(), pending.empty());
      if (!pending.empty()) {
        ASSERT_DOUBLE_EQ(q.next_time(), earliest()->time) << "seed " << seed;
      }
    }
  }
}

TEST(SimulatorTest, PendingEventsReflectsQueue) {
  Simulator sim;
  sim.at(1.0, [] {});
  const EventId b = sim.at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(b);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ClosuresAndTimersInterleaveInSeqOrder) {
  // Alternate closures and typed timers over times with frequent exact
  // ties; the firing order must be the (time, seq) order of an all-closure
  // run of the same schedule.
  util::Rng rng(7);
  std::vector<Time> times;
  Time t = 0;
  for (int i = 0; i < 500; ++i) {
    if (i % 5 != 0 || times.empty()) t += rng.exponential(0.003);
    times.push_back(t);
  }

  std::vector<std::uint64_t> mixed;
  {
    Simulator sim;
    Recorder r;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (i % 2 == 0) {
        sim.at(times[i], [&r, i] { r.fired.push_back(i); });
      } else {
        sim.timer_at(times[i], &r, i);
      }
    }
    sim.run();
    mixed = r.fired;
  }

  std::vector<std::uint64_t> closures;
  {
    Simulator sim;
    for (std::size_t i = 0; i < times.size(); ++i) {
      sim.at(times[i], [&closures, i] { closures.push_back(i); });
    }
    sim.run();
  }

  ASSERT_EQ(mixed.size(), times.size());
  EXPECT_EQ(mixed, closures);
}

TEST(SimulatorTest, CancelSameInstantSiblingFromEvent) {
  Simulator sim;
  Recorder r;
  EventId timer_sibling = kInvalidEventId;
  EventId closure_sibling = kInvalidEventId;
  sim.at(1.0, [&] {
    r.fired.push_back(0);
    EXPECT_TRUE(sim.cancel(timer_sibling));
    EXPECT_TRUE(sim.cancel(closure_sibling));
  });
  timer_sibling = sim.timer_at(1.0, &r, 1);
  closure_sibling = sim.at(1.0, [&] { r.fired.push_back(2); });
  sim.timer_at(1.0, &r, 3);
  sim.run();
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, CancelTimerStopsFiring) {
  Simulator sim;
  Recorder r;
  const EventId id = sim.timer_at(1.0, &r, 1);
  sim.timer_at(2.0, &r, 2);
  EXPECT_TRUE(sim.pending(id));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 1u);  // drops at the cancel, not later
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilFiresTimersAtBoundary) {
  Simulator sim;
  Recorder r;
  sim.timer_at(1.0, &r, 1);
  sim.timer_at(1.5, &r, 2);
  sim.run_until(1.0);  // timers at exactly t fire
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{1}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  sim.run_until(3.0);
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TimerScheduledFromTimerFires) {
  Simulator sim;
  struct Chain final : TimerClient {
    Simulator* sim = nullptr;
    int hops = 0;
    void on_timer(std::uint64_t payload) override {
      ++hops;
      if (payload > 0) sim->timer_at(sim->now() + 0.25, this, payload - 1);
    }
  } chain;
  chain.sim = &sim;
  sim.timer_at(0.25, &chain, 5);
  sim.run();
  EXPECT_EQ(chain.hops, 6);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

}  // namespace
}  // namespace frap::sim
