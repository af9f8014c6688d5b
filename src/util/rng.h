// Deterministic random number generation for workload synthesis.
//
// Every experiment run owns one Rng seeded explicitly, so results are
// reproducible bit-for-bit across runs and platforms (mt19937_64 and our own
// inversion-sampling guarantee identical streams everywhere, unlike
// std::*_distribution whose algorithms are implementation-defined).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace frap::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [0, 1).
  double uniform01();

  // Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Exponential with the given mean (= 1/rate). Requires mean > 0.
  // Sampled by inversion for cross-platform determinism.
  double exponential(double mean);

  // Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  std::uint64_t next_u64() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace frap::util
