#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "metrics/counters.h"
#include "metrics/histogram.h"
#include "metrics/utilization_meter.h"
#include "util/rng.h"

namespace frap::metrics {
namespace {

// ------------------------------------------------------ UtilizationMeter ---

TEST(UtilizationMeterTest, SingleIntervalFullWindow) {
  UtilizationMeter m;
  m.set_busy(0.0);
  m.set_idle(4.0);
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(m.utilization(0.0, 10.0), 0.4);
}

TEST(UtilizationMeterTest, WindowCutsInterval) {
  UtilizationMeter m;
  m.set_busy(2.0);
  m.set_idle(8.0);
  // Window [4, 6] lies fully inside the busy interval.
  EXPECT_DOUBLE_EQ(m.utilization(4.0, 6.0), 1.0);
  // Window [0, 4]: busy on [2, 4].
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 4.0), 2.0);
  // Window [6, 10]: busy on [6, 8].
  EXPECT_DOUBLE_EQ(m.busy_time(6.0, 10.0), 2.0);
}

TEST(UtilizationMeterTest, MultipleIntervals) {
  UtilizationMeter m;
  m.set_busy(0.0);
  m.set_idle(1.0);
  m.set_busy(2.0);
  m.set_idle(3.0);
  m.set_busy(5.0);
  m.set_idle(6.0);
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(m.utilization(0.0, 6.0), 0.5);
}

TEST(UtilizationMeterTest, OpenBusyIntervalCountsToWindowEnd) {
  UtilizationMeter m;
  m.set_busy(3.0);
  EXPECT_TRUE(m.busy());
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 10.0), 7.0);
}

TEST(UtilizationMeterTest, ZeroLengthBusyInterval) {
  UtilizationMeter m;
  m.set_busy(1.0);
  m.set_idle(1.0);
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 2.0), 0.0);
  EXPECT_FALSE(m.busy());
}

TEST(UtilizationMeterTest, WindowBeforeAnyActivity) {
  UtilizationMeter m;
  m.set_busy(5.0);
  m.set_idle(6.0);
  EXPECT_DOUBLE_EQ(m.busy_time(0.0, 5.0), 0.0);
}

// ---------------------------------------------------------- RatioTracker ---

TEST(RatioTrackerTest, EmptyIsZero) {
  RatioTracker r;
  EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
  EXPECT_EQ(r.total(), 0u);
}

TEST(RatioTrackerTest, CountsHitsOverTotal) {
  RatioTracker r;
  r.record(true);
  r.record(false);
  r.record(true);
  r.record(false);
  EXPECT_EQ(r.hits(), 2u);
  EXPECT_EQ(r.total(), 4u);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.5);
}

// ---------------------------------------------------------- RunningStats ---

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats s;
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(RunningStatsTest, VarianceIsSampleVariance) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  // Sample variance of {1, 3} = 2.
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, WelfordMatchesDirectComputation) {
  RunningStats s;
  double sum = 0, sum2 = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const double x = 0.1 * i;
    s.add(x);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = (sum2 - n * mean * mean) / (n - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

// ------------------------------------------------------------- Histogram ---

TEST(HistogramTest, BucketsSamplesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.9);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(HistogramTest, BucketLoEdges) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 5.0);
}

TEST(HistogramTest, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // Median should land around 50 (within one bucket).
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
}

TEST(HistogramTest, QuantileEmpty) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, NanIsRejectedAndCounted) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-std::numeric_limits<double>::quiet_NaN());
  h.add(1.0);
  // NaN never enters a bucket, the total, or the sum — it is only counted.
  EXPECT_EQ(h.nan_rejected(), 2u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0);
  std::uint64_t bucketed = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) bucketed += h.bucket(i);
  EXPECT_EQ(bucketed, 1u);
}

TEST(HistogramTest, InfinitiesClampToEdgeBucketsButSkipSum) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(2.5);
  EXPECT_EQ(h.bucket(0), 1u);  // -inf
  EXPECT_EQ(h.bucket(2), 1u);  // 2.5
  EXPECT_EQ(h.bucket(9), 1u);  // +inf
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.nan_rejected(), 0u);
  // sum() stays finite: only finite samples contribute.
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
}

TEST(HistogramTest, ExactBucketEdgesLandInTheirOwnBucket) {
  // (0.3 - 0) / 0.1 evaluates to 2.999...96 under the reciprocal-multiply
  // fast path; the edge snap must keep every exact edge in the bucket whose
  // left edge it is: bucket_lo(i) <= x < bucket_hi(i).
  Histogram h(0.0, 1.0, 10);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    h.add(h.bucket_lo(i));
  }
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.bucket(i), 1u) << "bucket " << i;
  }
  EXPECT_EQ(h.total(), h.bucket_count());
}

TEST(HistogramTest, TopEdgeAndJustBelowClampConsistently) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);                           // == hi: clamps into the last bucket
  h.add(std::nextafter(1.0, 0.0));      // just inside the range
  h.add(std::nextafter(0.25, 0.0));     // just below an interior edge
  h.add(0.25);                          // exactly on the interior edge
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, AddFiniteMatchesAddOnFiniteInputs) {
  Histogram a(0.0, 50.0, 25);
  Histogram b(0.0, 50.0, 25);
  util::Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-10.0, 60.0);  // exercises both clamps
    a.add(x);
    b.add_finite(x);
  }
  EXPECT_EQ(a.total(), b.total());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
  }
}

// --------------------------------------------------------- AtomicCounter ---

TEST(AtomicCounterTest, StartsAtZeroAndIncrements) {
  AtomicCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(3);
  EXPECT_EQ(c.value(), 4u);
}

TEST(AtomicCounterTest, CopySnapshotsValue) {
  AtomicCounter c;
  c.increment(7);
  AtomicCounter snap = c;
  c.increment();
  EXPECT_EQ(snap.value(), 7u);
  EXPECT_EQ(c.value(), 8u);
}

TEST(AtomicCounterTest, ConcurrentIncrementsAreLossless) {
  AtomicCounter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace frap::metrics
