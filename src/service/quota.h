// Quota plans for the sharded admission service.
//
// The region budget Σ_j f(U_j) ≤ B is partitioned across K shards by
// WEIGHTS w_k with Σ w_k = 1, not by splitting B itself: shard k stores its
// tasks' contributions unscaled, views them through one scale 1/w_k
// (Ũ_jk = U_jk / w_k) and tests them against the FULL bound B. Because
// f is convex with f(0) = 0 (so f(w·x) ≤ w·f(x)),
//
//   f(Σ_k U_jk) = f(Σ_k w_k · Ũ_jk) ≤ Σ_k w_k f(Ũ_jk)
//
// per stage, hence Σ_j f(Σ_k U_jk) ≤ Σ_k w_k [Σ_j f(Ũ_jk)] ≤ max_k L_k ≤ B
// whenever every shard's scaled LHS L_k stays within B — per-shard
// admissions are globally sound with no cross-shard communication
// (docs/admission_service.md has the full derivation). Splitting B into
// per-shard bounds directly would be UNSOUND: convexity makes f
// superadditive, so K shards each inside B/K can jointly sit outside B.
//
// QuotaPlan is the bookkeeping for those weights: validated construction,
// equal split, and the demand-proportional reassignment used by the
// rebalancer. It is deliberately free of synchronization — the service
// serializes all weight changes under its global mutex.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace frap::service {

class QuotaPlan {
 public:
  // No shard's weight may drop below this by default: a zero-weight shard
  // could admit nothing locally and would divide by zero in the scaled view.
  static constexpr double kDefaultMinWeight = 0.01;

  // Equal split across `num_shards` shards.
  explicit QuotaPlan(std::size_t num_shards,
                     double min_weight = kDefaultMinWeight);

  std::size_t size() const { return w_.size(); }
  double weight(std::size_t k) const;
  double min_weight() const { return min_weight_; }
  std::span<const double> weights() const { return w_; }

  // Replaces the weights. Preconditions: same size, each >= min_weight
  // (up to FP tolerance), sum == 1 (up to FP tolerance).
  void set_weights(std::vector<double> weights);

  // Demand-proportional weights floored per shard: each shard keeps
  // floor[k] and the remaining 1 - Σ floor is distributed in proportion to
  // demand[k] (equally when total demand is zero). Pure function; the
  // result sums to 1 and respects the floors, provided Σ floor <= 1.
  static std::vector<double> proportional(std::span<const double> demand,
                                          std::span<const double> floor);

 private:
  std::vector<double> w_;
  double min_weight_;
};

}  // namespace frap::service
