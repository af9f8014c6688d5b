#include "metrics/utilization_meter.h"

#include <algorithm>

#include "util/check.h"

namespace frap::metrics {

void UtilizationMeter::set_busy(Time t) {
  FRAP_EXPECTS(!busy_);
  FRAP_EXPECTS(intervals_.empty() || t >= intervals_.back().end);
  busy_ = true;
  busy_since_ = t;
}

void UtilizationMeter::set_idle(Time t) {
  FRAP_EXPECTS(busy_);
  FRAP_EXPECTS(t >= busy_since_);
  if (intervals_.size() % kBlock == 0) block_cum_.push_back(total_);
  intervals_.push_back(Interval{busy_since_, t});
  total_ += t - busy_since_;
  busy_ = false;
}

Duration UtilizationMeter::cum_through(std::size_t k) const {
  if (k + 1 == intervals_.size()) return total_;
  const std::size_t first = k - k % kBlock;
  Duration cum = block_cum_[k / kBlock];
  for (std::size_t i = first; i <= k; ++i) {
    cum += intervals_[i].end - intervals_[i].begin;
  }
  return cum;
}

Duration UtilizationMeter::busy_time(Time from, Time to) const {
  FRAP_EXPECTS(to >= from);
  Duration total = 0;
  // Intervals are sorted and non-overlapping, so only the first and last
  // interval of the window can straddle its edges; everything between is
  // fully inside and comes out of the cumulative sums.
  const auto lo = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [&](const Interval& iv) { return iv.end <= from; });
  const auto hi = std::partition_point(
      lo, intervals_.end(), [&](const Interval& iv) { return iv.begin < to; });
  if (lo != hi) {
    const auto last = hi - 1;
    const auto first_index =
        static_cast<std::size_t>(lo - intervals_.begin());
    const Duration before_lo =
        first_index == 0 ? 0 : cum_through(first_index - 1);
    total = cum_through(static_cast<std::size_t>(last - intervals_.begin())) -
            before_lo;
    // Clamp the straddling edges (a single interval may straddle both).
    if (lo->begin < from) total -= from - lo->begin;
    if (last->end > to) total -= last->end - to;
  }
  if (busy_) {
    const Time b = std::max(busy_since_, from);
    if (to > b) total += to - b;
  }
  return total;
}

double UtilizationMeter::utilization(Time from, Time to) const {
  FRAP_EXPECTS(to > from);
  return busy_time(from, to) / (to - from);
}

}  // namespace frap::metrics
