#include "core/long_path_bound.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

namespace {

// Two lanes of the profile matrix, one SSE2 register: a GCC/Clang vector
// extension, so no library is needed for it.
using LanePair = double __attribute__((vector_size(2 * sizeof(double))));

}  // namespace

// frap:contract(hotpath) -- one pass over the shape's cached matrix, with
// its kProfileLanes / 2 = 8 accumulator pairs in registers: that leaves
// room in SSE2's 16 for the weight, the loaded column and the mask. The
// lanes are spelled as vector pairs because the compiler does not
// vectorize the scalar form: under the default -ftrapping-math it sinks
// the product into the unmasked arm and keeps a branch per lane.
double kept_profile_max(const TaskGraphShape& shape,
                        std::span<const double> w_local) {
  constexpr std::size_t kLanes = TaskGraphShape::kProfileLanes;
  constexpr std::size_t kPairs = kLanes / 2;
  FRAP_EXPECTS(shape.profile_matrix().size() == w_local.size() * kLanes);
  const double* matrix = shape.profile_matrix().data();
  const LanePair zero = {};
  LanePair acc[kPairs] = {};
  for (const double wt : w_local) {
    const LanePair w = {wt, wt};
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kPairs; ++i) {
      LanePair m;
      std::memcpy(&m, matrix + 2 * i, sizeof m);
      // A lane that skips this resource adds +0.0, not 0·wt (NaN at +inf).
      acc[i] += m > zero ? m * w : zero;
    }
    matrix += kLanes;
  }
  // The max over lanes as a tree of pairwise maxima (exact, so the order
  // does not matter), rather than one serial chain of 16.
  for (std::size_t half = kPairs / 2; half > 0; half /= 2) {
    for (std::size_t i = 0; i < half; ++i) {
      acc[i] = acc[i] > acc[i + half] ? acc[i] : acc[i + half];
    }
  }
  const double lo = acc[0][0];
  const double hi = acc[0][1];
  return std::max(lo, hi);
}

LongPathEvaluator::LongPathEvaluator(
    const std::vector<double>& deadline_ceiling,
    const std::vector<double>& beta, double stage_cap)
    : per_deadline_(true) {
  FRAP_EXPECTS(!deadline_ceiling.empty());
  FRAP_EXPECTS(beta.empty() || beta.size() == deadline_ceiling.size());
  FRAP_EXPECTS(stage_cap > 0);
  terms_.resize(deadline_ceiling.size());
  for (std::size_t k = 0; k < terms_.size(); ++k) {
    const double c = deadline_ceiling[k];
    FRAP_EXPECTS(c > 0 && std::isfinite(c));
    terms_[k] = {c, c, beta.empty() ? 0.0 : beta[k], stage_cap};
    FRAP_EXPECTS(terms_[k].beta >= 0);
  }
}

LongPathEvaluator::LongPathEvaluator(std::vector<Terms> terms,
                                     bool per_deadline)
    : terms_(std::move(terms)), per_deadline_(per_deadline) {}

LongPathEvaluator LongPathEvaluator::ratio_one(
    std::size_t num_resources, double alpha, const std::vector<double>& beta) {
  FRAP_EXPECTS(num_resources > 0);
  FRAP_EXPECTS(alpha > 0 && alpha <= 1.0);
  FRAP_EXPECTS(beta.empty() || beta.size() == num_resources);
  std::vector<Terms> terms(num_resources);
  for (std::size_t k = 0; k < num_resources; ++k) {
    const double b = beta.empty() ? 0.0 : beta[k];
    FRAP_EXPECTS(b >= 0);
    terms[k] = {util::kInf, util::safe_inv(alpha), b, alpha * (1.0 - b)};
  }
  return LongPathEvaluator(std::move(terms), false);
}

bool LongPathEvaluator::respects_ceilings(const GraphTaskSpec& spec) const {
  expect_canonical(spec);
  for (std::uint32_t k : spec.shape->touched_resources()) {
    if (k >= terms_.size()) return false;
    if (spec.deadline > terms_[k].ceiling) return false;
  }
  return true;
}

double LongPathEvaluator::weight_of(std::size_t k, double f_term,
                                    Duration deadline, double s) const {
  FRAP_EXPECTS(k < terms_.size());
  const Terms& t = terms_[k];
  // Static ceiling contract: Theorem 1's D_max role is only played by D̂_k
  // if no task with a larger deadline can ever interfere at k.
  FRAP_EXPECTS(deadline <= t.ceiling);
  // Victim guard (see the ctor comment): an f-term above the per-stage cap
  // would break the state envelope earlier admits relied on, so the weight
  // saturates and the path value rejects through admits_lhs.
  if (f_term > t.cap) return util::kInf;
  return f_term * (t.scale * s) + t.beta;
}

// frap:contract(hotpath) -- the kept-profile pass and the envelope
// knapsack over cached shape data; only the last tier, the DP, walks the
// graph (longest_path_weight, scratch reused, warm after the first DP on a
// shape of this size).
double LongPathEvaluator::path_value(const TaskGraphShape& shape,
                                     std::span<const double> w_local) {
  const double kept = kept_profile_max(shape, w_local);
  if (shape.profiles_complete()) {
    ++tiers_.complete;
    return kept;
  }

  // Capped profile set. Both bounds are rounded past the DP's own binary64
  // error, so each verdict below is the DP's (docs/dag_bounds.md): the
  // DP's path sums run over at most T = max_path_nodes() nodes, and these
  // sums over at most t_count products. Inflating by (T + t_count + 2)·ε
  // covers both with room for the inflation's own rounding, and nextafter
  // breaks a tie away from the DP's value.
  const double rel =
      static_cast<double>(shape.max_path_nodes() + w_local.size() + 2) *
      std::numeric_limits<double>::epsilon();
  // A kept profile is a real path, so its value rounded down is at or
  // below the DP's: rejecting on it is the DP's reject. (+inf stays +inf:
  // a path through a saturated stage.)
  const double lower =
      std::isinf(kept) ? kept : std::nextafter(kept - kept * rel, 0.0);
  if (!FeasibleRegion::admits_lhs(lower, kDelayBudget)) {
    ++tiers_.kept_reject;
    return lower;
  }
  // The kept profiles and the envelope knapsack bound every path, so their
  // maximum rounded up is at or above the DP's value: admitting on it is
  // the DP's admit. Since upper >= DP >= lower, at most one of the two
  // tiers is conclusive, and testing the cheaper one first changes nothing.
  const double bound = std::max(kept, envelope_bound(shape, w_local));
  const double upper = std::nextafter(bound + bound * rel, util::kInf);
  if (FeasibleRegion::admits_lhs(upper, kDelayBudget)) {
    ++tiers_.envelope_admit;
    return upper;
  }
  // Inconclusive: the exact DP settles it.
  ++tiers_.dp;
  const auto touched = shape.touched_resources();
  if (w_resource_.size() < terms_.size()) w_resource_.resize(terms_.size());
  for (std::size_t t = 0; t < touched.size(); ++t) {
    w_resource_[touched[t]] = w_local[t];  // stale untouched entries unread
  }
  return shape.longest_path_weight(w_resource_, dp_dist_);
}

// Every path the kept profiles miss has a profile m with m <= envelope and
// sum(m) <= envelope_total, so the fractional knapsack over those
// constraints bounds it. Its optimum fills the largest weights first and is
// integral, since the caps and the total are integers.
double LongPathEvaluator::envelope_bound(const TaskGraphShape& shape,
                                         std::span<const double> w_local) {
  const auto env = shape.envelope();
  if (by_weight_.size() < env.size()) by_weight_.resize(env.size());
  // Insertion sort of the envelope entries by weight, largest first: at
  // most one entry per touched resource, a handful.
  for (std::size_t i = 0; i < env.size(); ++i) {
    const double w = w_local[env[i].local];
    std::size_t j = i;
    while (j > 0 && w_local[env[by_weight_[j - 1]].local] < w) {
      by_weight_[j] = by_weight_[j - 1];
      --j;
    }
    by_weight_[j] = static_cast<std::uint32_t>(i);
  }
  double value = 0;
  std::uint32_t nodes_left = shape.envelope_total();
  for (std::size_t i = 0; i < env.size() && nodes_left > 0; ++i) {
    const auto& e = env[by_weight_[i]];
    const std::uint32_t m = std::min(e.mult, nodes_left);
    value += static_cast<double>(m) * w_local[e.local];
    nodes_left -= m;
  }
  return value;
}

LongPathEvaluator::Eval LongPathEvaluator::evaluate(
    const GraphTaskSpec& spec, const SyntheticUtilizationTracker& tracker) {
  expect_canonical(spec);
  FRAP_EXPECTS(spec.deadline > 0);
  const TaskGraphShape* shape = spec.shape;
  const double inv_d = util::safe_inv(spec.deadline);
  const double s = deadline_scale(inv_d);
  const auto touched = shape->touched_resources();
  const std::vector<Duration>& compute = spec.demands->resource_compute;
  const std::size_t t_count = touched.size();
  if (w_before_.size() < t_count) {
    w_before_.resize(t_count);
    w_with_.resize(t_count);
  }
  for (std::size_t t = 0; t < t_count; ++t) {
    const std::size_t k = touched[t];
    w_before_[t] = weight_of(k, tracker.stage_lhs_term(k), spec.deadline, s);
    const double u_new = tracker.utilization(k) + compute[t] * inv_d;
    w_with_[t] = u_new >= 1.0
                     ? util::kInf
                     : weight_of(k, stage_delay_factor(u_new),
                                 spec.deadline, s);
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
  expect_canonical(spec);
  FRAP_EXPECTS(spec.deadline > 0);
  const double s = deadline_scale(util::safe_inv(spec.deadline));
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
                                 spec.deadline, s);
  }
  return path_value(shape, {w_with_.data(), t_count});
}

double LongPathEvaluator::exact_lhs_from_snapshot(
    const GraphTaskSpec& spec, std::span<const double> utilizations) {
  expect_canonical(spec);
  FRAP_EXPECTS(spec.deadline > 0);
  const double s = deadline_scale(util::safe_inv(spec.deadline));
  // The DP tier's scratch, no allocation once warm. weight_of checks k
  // against the ceilings before the store.
  if (w_resource_.size() < terms_.size()) w_resource_.resize(terms_.size());
  for (std::uint32_t k : spec.shape->touched_resources()) {
    FRAP_EXPECTS(k < utilizations.size());
    if (utilizations[k] >= 1.0) return util::kInf;
    w_resource_[k] = weight_of(k, stage_delay_factor(utilizations[k]),
                               spec.deadline, s);
  }
  return spec.shape->longest_path_weight(w_resource_, dp_dist_);
}

}  // namespace frap::core
