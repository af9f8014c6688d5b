#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace frap::util {

double Rng::uniform01() {
  // 53 random bits -> double in [0, 1) with full mantissa coverage.
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FRAP_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FRAP_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(engine_());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t x = engine_();
  while (x >= limit) x = engine_();
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::exponential(double mean) {
  FRAP_EXPECTS(mean > 0);
  // Inversion: -mean * ln(1 - u); 1 - uniform01() is in (0, 1].
  return -mean * std::log(1.0 - uniform01());
}

bool Rng::bernoulli(double p) {
  FRAP_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform01() < p;
}

}  // namespace frap::util
