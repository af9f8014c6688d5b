#include "sim/simulator.h"

#include <utility>

#include "util/check.h"

namespace frap::sim {

EventId Simulator::at(Time t, std::function<void()> fn) {
  FRAP_EXPECTS(t >= now_);
  return queue_.push(t, std::move(fn));
}

EventId Simulator::after(Duration d, std::function<void()> fn) {
  FRAP_EXPECTS(d >= 0);
  return queue_.push(now_ + d, std::move(fn));
}

EventId Simulator::timer_at(Time t, TimerClient* client,
                            std::uint64_t payload) {
  FRAP_EXPECTS(t >= now_);
  return queue_.push_timer(t, client, payload);
}

void Simulator::dispatch_next() {
  EventQueue::Event e = queue_.pop();
  FRAP_ASSERT(e.time >= now_);
  now_ = e.time;
  ++executed_;
  e.fire();
}

void Simulator::run() {
  while (!queue_.empty()) dispatch_next();
}

void Simulator::run_until(Time t) {
  FRAP_EXPECTS(t >= now_);
  while (!queue_.empty() && queue_.next_time() <= t) dispatch_next();
  now_ = t;
}

std::size_t Simulator::step(std::size_t n) {
  std::size_t ran = 0;
  while (ran < n && !queue_.empty()) {
    dispatch_next();
    ++ran;
  }
  return ran;
}

}  // namespace frap::sim
