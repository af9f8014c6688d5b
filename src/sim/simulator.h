// Deterministic discrete-event simulator.
//
// The simulator advances a virtual clock from event to event. Components
// (stage servers, workload generators, admission controllers) interact only
// through scheduled events, so a whole experiment is a single-threaded,
// perfectly reproducible computation.
//
// Every event lives on one EventQueue, an indexed (time, seq) heap:
//   * at()/after() schedule arbitrary closures;
//   * timer_at() schedules a typed, closure-free TimerClient event, used
//     for the dominant deadline-expiry traffic.
// Both kinds share one sequence counter, so same-time events fire in
// scheduling order whatever their kind (docs/perf_internals.md).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "util/time.h"

namespace frap::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time. Starts at 0.
  Time now() const { return now_; }

  // Schedules fn at absolute time t (>= now()).
  EventId at(Time t, std::function<void()> fn);

  // Schedules fn after a non-negative delay.
  EventId after(Duration d, std::function<void()> fn);

  // Schedules a typed timer at absolute time t (>= now()). Allocation-free
  // once the queue has grown to the live set.
  EventId timer_at(Time t, TimerClient* client, std::uint64_t payload);

  // Cancels a pending event or timer at once. Returns false for fired,
  // cancelled, stale and invalid handles.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // True while the event or timer is still pending.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  // Runs until the queue drains.
  void run();

  // Runs events with time <= t, then sets the clock to exactly t.
  // Events scheduled at exactly t DO fire.
  void run_until(Time t);

  // Executes at most `n` further events (for tests); returns how many ran.
  std::size_t step(std::size_t n = 1);

  // Events executed since construction (closures and timers).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  void dispatch_next();

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
};

}  // namespace frap::sim
