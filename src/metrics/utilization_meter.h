// Measures *real* utilization of a resource: the fraction of wall (virtual)
// time the resource spent busy. This is the y-axis of the paper's Figures
// 4-6 ("average real stage utilization ... the percentage of time the
// processor is busy"), as opposed to synthetic utilization, which is an
// analytical quantity.
//
// Layout: the whole busy history stays queryable, because experiments ask
// for arbitrary past windows. Each closed busy period is one 16-byte
// {begin, end} record in a std::deque, whose fixed-size chunks are never
// copied as it grows, so memory is 16 bytes per period with no reallocation
// peak. One cumulative busy time is kept per block of kBlock periods; a
// query re-sums at most one block from that prefix, in append order, so its
// result is bit-identical to a running sum kept per period.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "util/time.h"

namespace frap::metrics {

class UtilizationMeter {
 public:
  // Marks the transition to busy at time t. Calling while already busy is an
  // error (transitions must alternate).
  void set_busy(Time t);

  // Marks the transition to idle at time t (>= the busy transition).
  void set_idle(Time t);

  bool busy() const { return busy_; }

  // Total busy time accumulated in [from, to]; the interval may cut through
  // busy periods. `to` is typically the simulation end; if the meter is
  // still busy, the open interval is counted up to `to`.
  Duration busy_time(Time from, Time to) const;

  // busy_time(from, to) / (to - from). Requires to > from.
  double utilization(Time from, Time to) const;

 private:
  static constexpr std::size_t kBlock = 256;

  struct Interval {
    Time begin;
    Time end;
  };

  // Busy time of closed intervals [0..k], summed left to right.
  Duration cum_through(std::size_t k) const;

  // Closed intervals are appended in ascending, non-overlapping order
  // (set_busy enforces t >= the previous end).
  std::deque<Interval> intervals_;
  // block_cum_[b]: busy time of intervals [0, b * kBlock).
  std::vector<Duration> block_cum_;
  Duration total_ = 0;  // busy time of every closed interval
  bool busy_ = false;
  Time busy_since_ = kTimeZero;
};

}  // namespace frap::metrics
