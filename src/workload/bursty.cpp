#include "workload/bursty.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace frap::workload {

double MmppArrivalProcess::Config::average_rate() const {
  // Stationary probabilities proportional to the mean sojourn times.
  const double total = mean_quiet_time + mean_burst_time;
  return (rate_quiet * mean_quiet_time + rate_burst * mean_burst_time) /
         total;
}

MmppArrivalProcess::MmppArrivalProcess(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  FRAP_EXPECTS(config_.valid());
  state_remaining_ = rng_.exponential(config_.mean_quiet_time);
}

Duration MmppArrivalProcess::next_interarrival() {
  Duration elapsed = 0;
  while (true) {
    const double rate = burst_ ? config_.rate_burst : config_.rate_quiet;
    const Duration gap = rng_.exponential(1.0 / rate);
    if (gap <= state_remaining_) {
      // Arrival occurs within the current modulating state.
      state_remaining_ -= gap;
      return elapsed + gap;
    }
    // The state flips before the tentative arrival; by the memorylessness
    // of the Poisson process we may discard the tentative sample and draw
    // afresh in the new state.
    elapsed += state_remaining_;
    burst_ = !burst_;
    state_remaining_ = rng_.exponential(
        burst_ ? config_.mean_burst_time : config_.mean_quiet_time);
  }
}

BoundedParetoSampler::BoundedParetoSampler(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha) {
  FRAP_EXPECTS(lo > 0 && hi > lo);
  FRAP_EXPECTS(alpha > 0);
}

double BoundedParetoSampler::sample(util::Rng& rng) const {
  // Inverse transform for the bounded Pareto CDF.
  const double u = rng.uniform01();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

double BoundedParetoSampler::mean() const {
  // The closed form divides by (alpha - 1), which is catastrophically
  // ill-conditioned near alpha = 1; within almost_equal tolerance of the
  // degenerate point the alpha = 1 limit formula is the accurate branch.
  if (util::almost_equal(alpha_, 1.0)) {
    return std::log(hi_ / lo_) / (1.0 / lo_ - 1.0 / hi_);
  }
  const double la = std::pow(lo_, alpha_);
  // frap-lint: allow(unsafe-division) -- lo_ < hi_ (ctor precondition), so
  // pow(lo_/hi_, alpha_) < 1 and the denominator is strictly positive.
  return (la / (1.0 - std::pow(lo_ / hi_, alpha_))) *
         (alpha_ / (alpha_ - 1.0)) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) -
          1.0 / std::pow(hi_, alpha_ - 1.0));
}

}  // namespace frap::workload
