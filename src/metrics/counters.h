// Simple event-counting metrics used by experiments: acceptance ratio of the
// admission controller, deadline-miss ratio of admitted tasks, etc.
//
// The Atomic* variants at the bottom are the only concurrency-aware types in
// the library outside src/service/ (frap-lint R5 sanctions exactly this
// header); everything else here is single-threaded by design.
#pragma once

#include <atomic>
#include <cstdint>

namespace frap::metrics {

// Tracks a numerator over a denominator (e.g., misses over completions).
class RatioTracker {
 public:
  void record(bool hit) {
    ++total_;
    if (hit) ++hits_;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t total() const { return total_; }

  // hits/total; 0 when nothing recorded yet.
  double ratio() const {
    return total_ == 0 ? 0.0 : static_cast<double>(hits_) /
                                   static_cast<double>(total_);
  }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

// Consistency statistics for an incrementally-maintained cache (e.g. the
// synthetic-utilization tracker's running region-LHS scalar): how often the
// recompute-and-compare cross-check ran, the worst absolute drift it ever
// observed, and how many times the cache was rebuilt from scratch to bound
// floating-point drift.
struct CacheConsistency {
  std::uint64_t crosschecks = 0;
  std::uint64_t rebuilds = 0;
  double max_drift = 0;

  void record_crosscheck(double abs_drift) {
    ++crosschecks;
    if (abs_drift > max_drift) max_drift = abs_drift;
  }
  void record_rebuild() { ++rebuilds; }
};

// Streaming mean/variance/min/max (Welford's algorithm), for response-time
// style observations where storing every sample would be wasteful.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Monotonic event counter safe to bump from concurrent admission shards.
// Relaxed ordering on purpose: counts are eventually consistent
// observability data, never control flow — readers may see a slightly stale
// total while increments are in flight, which is fine for metrics and keeps
// the hot path to a single uncontended RMW.
class AtomicCounter {
 public:
  AtomicCounter() = default;
  // Counters are identity-less tallies; copying snapshots the value so the
  // service can return aggregated stats structs by value.
  AtomicCounter(const AtomicCounter& other) : n_(other.value()) {}
  AtomicCounter& operator=(const AtomicCounter& other) {
    // frap:contract(order: relaxed; counters are monotone tallies with no
    // cross-variable invariant, approximate totals are acceptable)
    n_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void increment(std::uint64_t by = 1) {
    // frap:contract(order: relaxed RMW; atomicity alone keeps the tally
    // exact, no ordering with other memory is needed)
    n_.fetch_add(by, std::memory_order_relaxed);
  }
  // frap:contract(order: relaxed; a metrics read may lag in-flight
  // increments by design)
  std::uint64_t value() const { return n_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

}  // namespace frap::metrics
