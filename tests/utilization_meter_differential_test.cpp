// Differential test of metrics::UtilizationMeter against the layout it
// replaced: one {begin, end, cum} record per busy period in a std::vector,
// where cum is a running sum kept at append. The meter now stores {begin,
// end} plus one prefix per block of periods and re-sums inside a block, in
// append order, so every busy_time must be bit-identical to the running
// sum's (EXPECT_EQ on the double, not a tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "metrics/utilization_meter.h"
#include "util/rng.h"

namespace frap::metrics {
namespace {

// The running-cum meter, kept verbatim as the oracle.
class RunningCumMeter {
 public:
  void set_busy(Time t) {
    busy_ = true;
    busy_since_ = t;
  }

  void set_idle(Time t) {
    const Duration prev = intervals_.empty() ? 0 : intervals_.back().cum;
    intervals_.push_back(Interval{busy_since_, t, prev + (t - busy_since_)});
    busy_ = false;
  }

  Duration busy_time(Time from, Time to) const {
    Duration total = 0;
    const auto lo = std::partition_point(
        intervals_.begin(), intervals_.end(),
        [&](const Interval& iv) { return iv.end <= from; });
    const auto hi =
        std::partition_point(lo, intervals_.end(),
                             [&](const Interval& iv) { return iv.begin < to; });
    if (lo != hi) {
      const auto last = hi - 1;
      const Duration before_lo = lo == intervals_.begin() ? 0 : (lo - 1)->cum;
      total = last->cum - before_lo;
      if (lo->begin < from) total -= from - lo->begin;
      if (last->end > to) total -= last->end - to;
    }
    if (busy_) {
      const Time b = std::max(busy_since_, from);
      if (to > b) total += to - b;
    }
    return total;
  }

  struct Interval {
    Time begin;
    Time end;
    Duration cum;
  };
  std::vector<Interval> intervals_;
  bool busy_ = false;
  Time busy_since_ = kTimeZero;
};

// Both meters fed the same transitions.
struct Pair {
  UtilizationMeter meter;
  RunningCumMeter oracle;

  void set_busy(Time t) {
    meter.set_busy(t);
    oracle.set_busy(t);
  }
  void set_idle(Time t) {
    meter.set_idle(t);
    oracle.set_idle(t);
  }
};

// Appends `n` busy periods after `t` with exponential busy and idle lengths
// (so the sums are inexact and summation order shows), some of them zero.
Time append_periods(Pair& p, util::Rng& rng, Time t, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.bernoulli(0.1)) t += rng.exponential(0.37);
    p.set_busy(t);
    if (!rng.bernoulli(0.05)) t += rng.exponential(0.11);
    p.set_idle(t);
  }
  return t;
}

void expect_window(const Pair& p, Time from, Time to) {
  EXPECT_EQ(p.meter.busy_time(from, to), p.oracle.busy_time(from, to))
      << "window [" << from << ", " << to << "] over "
      << p.oracle.intervals_.size() << " periods";
  if (to > from) {
    EXPECT_EQ(p.meter.utilization(from, to),
              p.oracle.busy_time(from, to) / (to - from));
  }
}

// Windows with random edges, and windows whose edges sit in, on and just
// around periods next to the 256-period block boundaries, so a window's
// first and last period fall in different blocks (or in the same one).
void expect_windows(const Pair& p, util::Rng& rng, Time end) {
  for (int q = 0; q < 200; ++q) {
    Time a = rng.uniform(-1.0, end + 1.0);
    Time b = rng.uniform(-1.0, end + 1.0);
    if (a > b) std::swap(a, b);
    expect_window(p, a, b);
  }
  const auto& iv = p.oracle.intervals_;
  if (iv.empty()) return;
  std::vector<Time> edges;
  for (std::size_t k = 255; k < iv.size() + 256; k += 256) {
    for (std::size_t i = k > 2 ? k - 2 : 0; i <= k + 2 && i < iv.size(); ++i) {
      edges.push_back(iv[i].begin);
      edges.push_back(iv[i].end);
      edges.push_back((iv[i].begin + iv[i].end) / 2);
      if (i + 1 < iv.size()) edges.push_back((iv[i].end + iv[i + 1].begin) / 2);
    }
  }
  edges.push_back(iv.front().begin);
  edges.push_back(iv.back().end);
  edges.push_back(end + 1.0);
  for (const Time a : edges) {
    for (int q = 0; q < 6; ++q) {
      const Time b = edges[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(edges.size()) - 1))];
      expect_window(p, std::min(a, b), std::max(a, b));
    }
    expect_window(p, a, a);
    expect_window(p, -1.0, a);
    expect_window(p, a, end + 1.0);
  }
}

TEST(UtilizationMeterDifferentialTest, EmptyMeterReadsZero) {
  Pair p;
  expect_window(p, 0.0, 0.0);
  expect_window(p, 0.0, 10.0);
  expect_window(p, -3.0, 2.5);
  EXPECT_EQ(p.meter.busy_time(0.0, 10.0), 0.0);
}

TEST(UtilizationMeterDifferentialTest, OpenIntervalWithNoHistory) {
  Pair p;
  p.set_busy(1.25);
  expect_window(p, 0.0, 1.0);
  expect_window(p, 0.0, 10.0);
  expect_window(p, 2.0, 3.7);
  expect_window(p, 1.25, 1.25);
}

// Random histories from a few periods up to several blocks, some left with
// an open busy interval; every prefix length that ends a block is queried
// while the history is still growing, as a live simulation would.
TEST(UtilizationMeterDifferentialTest, RandomHistoriesBitEqualToRunningSum) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    Pair p;
    Time t = rng.uniform(0.0, 2.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1400));
    std::size_t appended = 0;
    while (appended < n) {
      const std::size_t step = std::min<std::size_t>(
          n - appended, static_cast<std::size_t>(rng.uniform_int(1, 300)));
      t = append_periods(p, rng, t, step);
      appended += step;
      expect_windows(p, rng, t);
    }
    if (rng.bernoulli(0.5)) {
      t += rng.exponential(0.37);
      p.set_busy(t);
      expect_windows(p, rng, t + 2.0);
    }
  }
}

// Exactly one and two full blocks, and one period either side: the last
// period is then the first or the last of its block.
TEST(UtilizationMeterDifferentialTest, BlockEdgeHistoryLengths) {
  for (const std::size_t n : {255u, 256u, 257u, 511u, 512u, 513u}) {
    util::Rng rng(1000 + n);
    Pair p;
    const Time end = append_periods(p, rng, 0.0, n);
    expect_windows(p, rng, end);
    p.set_busy(end + 0.5);
    expect_windows(p, rng, end + 3.0);
  }
}

}  // namespace
}  // namespace frap::metrics
