#include "core/long_path_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

LongPathEvaluator::LongPathEvaluator(std::vector<double> deadline_ceiling,
                                     std::vector<double> beta,
                                     double stage_cap)
    : ceiling_(std::move(deadline_ceiling)),
      beta_(std::move(beta)),
      stage_cap_(stage_cap) {
  FRAP_EXPECTS(!ceiling_.empty());
  for (double c : ceiling_) FRAP_EXPECTS(c > 0 && std::isfinite(c));
  FRAP_EXPECTS(beta_.empty() || beta_.size() == ceiling_.size());
  for (double b : beta_) FRAP_EXPECTS(b >= 0);
  FRAP_EXPECTS(stage_cap_ > 0);
}

bool LongPathEvaluator::respects_ceilings(const GraphTaskSpec& spec) const {
  for (std::uint32_t k : spec.touched_resources()) {
    if (k >= ceiling_.size()) return false;
    if (spec.deadline > ceiling_[k]) return false;
  }
  return true;
}

double LongPathEvaluator::weight_of(std::size_t k, double f_term,
                                    Duration deadline,
                                    double inv_deadline) const {
  FRAP_EXPECTS(k < ceiling_.size());
  // Static ceiling contract: Theorem 1's D_max role is only played by D̂_k
  // if no task with a larger deadline can ever interfere at k.
  FRAP_EXPECTS(deadline <= ceiling_[k]);
  // Victim guard (see the ctor comment): an f-term above the per-stage cap
  // would break the state envelope earlier admits relied on, so the weight
  // saturates and the path value rejects through admits_lhs.
  if (f_term > stage_cap_) return util::kInf;
  const double beta = beta_.empty() ? 0.0 : beta_[k];
  return f_term * (ceiling_[k] * inv_deadline) + beta;
}

// frap:contract(hotpath) -- profile dot products and the path-cap bound
// over cached shape data; only the last tier, the DP, walks the graph
// (longest_path_weight, scratch reused, warm after the first DP on a shape
// of this size).
double LongPathEvaluator::path_value(const TaskGraphShape& shape,
                                     std::span<const double> w_local) {
  double kept = 0;
  for (std::size_t p = 0; p < shape.num_profiles(); ++p) {
    double v = 0;
    for (const auto& e : shape.profile(p)) {
      v += static_cast<double>(e.mult) * w_local[e.local];
    }
    kept = std::max(kept, v);
  }
  if (shape.profiles_complete()) {
    ++tiers_.complete;
    return kept;
  }

  // Capped profile set: the envelope upper-bounds every dropped path.
  double env = 0;
  for (const auto& e : shape.envelope()) {
    env += static_cast<double>(e.mult) * w_local[e.local];
  }
  const double upper = std::max(kept, env);
  // Admitting on an upper bound is sound and agrees with the exact test
  // (true value <= upper <= budget). Rejecting on the kept value is sound
  // and agrees too (true value >= kept > budget).
  if (FeasibleRegion::admits_lhs(upper, kDelayBudget)) {
    ++tiers_.envelope_admit;
    return upper;
  }
  if (!FeasibleRegion::admits_lhs(kept, kDelayBudget)) {
    ++tiers_.kept_reject;
    return kept;
  }
  // Gray band. The path caps give a second, often tighter, upper bound.
  const double capped = path_cap_bound(shape, w_local);
  if (FeasibleRegion::admits_lhs(capped, kDelayBudget)) {
    ++tiers_.path_cap_admit;
    return capped;
  }
  // Still inconclusive: the exact DP settles it.
  ++tiers_.dp;
  const auto touched = shape.touched_resources();
  if (w_resource_.size() < ceiling_.size()) w_resource_.resize(ceiling_.size());
  for (std::size_t t = 0; t < touched.size(); ++t) {
    w_resource_[touched[t]] = w_local[t];  // stale untouched entries unread
  }
  return shape.longest_path_weight(w_resource_, dp_dist_);
}

// Every path profile m satisfies m <= U (path_caps) and sum(m) <= T
// (max_path_nodes), so the fractional knapsack over those constraints
// bounds the path maximum. Its optimum fills the largest weights first and
// is integral, since U and T are integers.
double LongPathEvaluator::path_cap_bound(const TaskGraphShape& shape,
                                         std::span<const double> w_local) {
  const auto caps = shape.path_caps();
  const std::size_t t_count = w_local.size();
  if (by_weight_.size() < t_count) by_weight_.resize(t_count);
  // Insertion sort by weight, largest first: t_count is the shape's
  // touched-resource count, a handful.
  for (std::size_t i = 0; i < t_count; ++i) {
    std::size_t j = i;
    while (j > 0 && w_local[by_weight_[j - 1]] < w_local[i]) {
      by_weight_[j] = by_weight_[j - 1];
      --j;
    }
    by_weight_[j] = static_cast<std::uint32_t>(i);
  }
  double value = 0;
  std::uint32_t nodes_left = shape.max_path_nodes();
  for (std::size_t i = 0; i < t_count && nodes_left > 0; ++i) {
    const std::uint32_t t = by_weight_[i];
    const std::uint32_t m = std::min(caps[t], nodes_left);
    value += static_cast<double>(m) * w_local[t];
    nodes_left -= m;
  }
  // Round up. The DP sums each path left to right in binary64, which can
  // land up to a factor (1 + T·u) above the real path sum; this sum of
  // t_count products can land up to (1 + (t_count + 1)·u) below the real
  // knapsack value (u = epsilon / 2). Inflating by (T + t_count + 2)·epsilon
  // covers both with room for the inflation's own rounding, and nextafter
  // breaks a tie upward, so the result is never below the DP's value.
  const double rel = static_cast<double>(shape.max_path_nodes() + t_count + 2) *
                     std::numeric_limits<double>::epsilon();
  return std::nextafter(value + value * rel, util::kInf);
}

LongPathEvaluator::Eval LongPathEvaluator::evaluate(
    const GraphTaskSpec& spec, const SyntheticUtilizationTracker& tracker) {
  const TaskGraphShape* shape = spec.shape;
  FRAP_EXPECTS(shape != nullptr);
  FRAP_EXPECTS(spec.nodes.empty() && spec.edges.empty());
  FRAP_EXPECTS(spec.deadline > 0);
  const double inv_d = util::safe_inv(spec.deadline);
  const auto touched = shape->touched_resources();
  const auto compute = shape->resource_compute();
  const std::size_t t_count = touched.size();
  if (w_before_.size() < t_count) {
    w_before_.resize(t_count);
    w_with_.resize(t_count);
  }
  for (std::size_t t = 0; t < t_count; ++t) {
    const std::size_t k = touched[t];
    w_before_[t] = weight_of(k, tracker.stage_lhs_term(k), spec.deadline, inv_d);
    const double u_new = tracker.utilization(k) + compute[t] * inv_d;
    w_with_[t] = u_new >= 1.0
                     ? util::kInf
                     : weight_of(k, stage_delay_factor(u_new),
                                 spec.deadline, inv_d);
  }
  Eval e;
  e.lhs_before = path_value(*shape, {w_before_.data(), t_count});
  e.lhs_with_task = path_value(*shape, {w_with_.data(), t_count});
  e.admitted = FeasibleRegion::admits_lhs(e.lhs_with_task, kDelayBudget);
#ifndef NDEBUG
  {
    // Recompute-from-snapshot cross-check, mirroring the tracker's own
    // incremental-LHS verification (docs/incremental_lhs.md). Bit-exact:
    // the tracker's cached f-term IS stage_delay_factor(utilization(k)),
    // and lhs_from_snapshot runs the identical profile logic. The check
    // leaves the tier counts as the release build would.
    const TierCounts tiers = tiers_;
    if (dbg_u_.size() != tracker.num_stages()) {
      dbg_u_.resize(tracker.num_stages());
    }
    std::span<double> u(dbg_u_);
    tracker.utilizations(u);
    const double before = lhs_from_snapshot(spec, u);
    for (std::size_t t = 0; t < t_count; ++t) {
      u[touched[t]] += compute[t] * inv_d;
    }
    const double with_task = lhs_from_snapshot(spec, u);
    FRAP_ASSERT(before == e.lhs_before ||
                (std::isinf(before) && std::isinf(e.lhs_before)));
    FRAP_ASSERT(with_task == e.lhs_with_task ||
                (std::isinf(with_task) && std::isinf(e.lhs_with_task)));
    tiers_ = tiers;
  }
#endif
  return e;
}

double LongPathEvaluator::lhs_from_snapshot(
    const GraphTaskSpec& spec, std::span<const double> utilizations) {
  FRAP_EXPECTS(spec.shape != nullptr);
  FRAP_EXPECTS(spec.nodes.empty() && spec.edges.empty());
  FRAP_EXPECTS(spec.deadline > 0);
  const double inv_d = util::safe_inv(spec.deadline);
  const TaskGraphShape& shape = *spec.shape;
  const auto touched = shape.touched_resources();
  const std::size_t t_count = touched.size();
  if (w_with_.size() < t_count) w_with_.resize(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    const std::size_t k = touched[t];
    FRAP_EXPECTS(k < utilizations.size());
    w_with_[t] = utilizations[k] >= 1.0
                     ? util::kInf
                     : weight_of(k, stage_delay_factor(utilizations[k]),
                                 spec.deadline, inv_d);
  }
  return path_value(shape, {w_with_.data(), t_count});
}

double LongPathEvaluator::exact_lhs_from_snapshot(
    const GraphTaskSpec& spec, std::span<const double> utilizations) {
  FRAP_EXPECTS(spec.shape != nullptr);
  FRAP_EXPECTS(spec.deadline > 0);
  const double inv_d = util::safe_inv(spec.deadline);
  // The DP tier's scratch, no allocation once warm. weight_of checks k
  // against the ceilings before the store.
  if (w_resource_.size() < ceiling_.size()) w_resource_.resize(ceiling_.size());
  for (std::uint32_t k : spec.shape->touched_resources()) {
    FRAP_EXPECTS(k < utilizations.size());
    if (utilizations[k] >= 1.0) return util::kInf;
    w_resource_[k] = weight_of(k, stage_delay_factor(utilizations[k]),
                               spec.deadline, inv_d);
  }
  return spec.shape->longest_path_weight(w_resource_, dp_dist_);
}

}  // namespace frap::core
