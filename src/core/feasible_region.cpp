#include "core/feasible_region.h"

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

FeasibleRegion::FeasibleRegion(std::size_t num_stages, double alpha,
                               std::vector<double> beta)
    : num_stages_(num_stages), alpha_(alpha), beta_(std::move(beta)) {
  FRAP_EXPECTS(num_stages_ >= 1);
  FRAP_EXPECTS(alpha_ > 0 && alpha_ <= 1.0);
  FRAP_EXPECTS(beta_.size() == num_stages_);
  double beta_sum = 0;
  for (double b : beta_) {
    FRAP_EXPECTS(b >= 0);
    beta_sum += b;
  }
  FRAP_EXPECTS(beta_sum < 1.0);  // otherwise the region is empty
  bound_ = alpha_ * (1.0 - beta_sum);
}

FeasibleRegion FeasibleRegion::deadline_monotonic(std::size_t num_stages) {
  return FeasibleRegion(num_stages, 1.0, std::vector<double>(num_stages, 0));
}

FeasibleRegion FeasibleRegion::with_alpha(std::size_t num_stages,
                                          double alpha) {
  return FeasibleRegion(num_stages, alpha,
                        std::vector<double>(num_stages, 0));
}

FeasibleRegion FeasibleRegion::with_blocking(
    double alpha, std::vector<double> beta_per_stage) {
  const std::size_t n = beta_per_stage.size();
  return FeasibleRegion(n, alpha, std::move(beta_per_stage));
}

double FeasibleRegion::lhs(std::span<const double> utilizations) const {
  FRAP_EXPECTS(utilizations.size() == num_stages_);
  double sum = 0;
  for (double u : utilizations) {
    if (u >= 1.0) return util::kInf;
    sum += stage_delay_factor(u);
  }
  return sum;
}

bool FeasibleRegion::contains(std::span<const double> utilizations) const {
  return admits(lhs(utilizations));
}

double FeasibleRegion::boundary_u2(double u1) const {
  FRAP_EXPECTS(num_stages_ == 2);
  FRAP_EXPECTS(u1 >= 0);
  if (u1 >= 1.0) return 0.0;  // saturated stage 1: nothing left for stage 2
  const double remaining = bound() - stage_delay_factor(u1);
  if (remaining <= 0) return 0.0;
  return stage_delay_factor_inverse(remaining);
}

}  // namespace frap::core
