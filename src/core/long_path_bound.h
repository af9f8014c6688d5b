// Long-path admission bound for DAG tasks (docs/dag_bounds.md).
//
// Theorem 2 admits a DAG task by pushing the per-stage delay f(U_k)·D_max
// through the single critical path and comparing against alpha·(1 - Σβ).
// Following He et al. (*Bounding the Response Time of DAG Tasks Using Long
// Paths*), evaluating EVERY source->sink path with per-path constants
// strictly dominates the single-path test. The instantiation here keeps the
// paper's per-stage delay (Theorem 1) and tightens the two global constants
// into per-task / per-resource ones:
//
//     for every path P:   Σ_{i in P} [ f(U_{k_i}) · D̂_{k_i} / D_n
//                                       + β_{k_i} ]   <=   1
//
// where D_n is THIS task's relative deadline and D̂_k is a static
// per-resource deadline ceiling with the contract that every admitted task
// touching resource k has D_n <= D̂_k (enforced per evaluation). Theorem 1
// then bounds the node's residence by f(U_k)·D̂_k for ANY fixed-priority
// order — the ceiling plays D_max's role per resource — and B_k <= β_k·D_n
// bounds blocking, so the condition above makes every path's delay <= D_n.
// The critical-path test is the special case that collapses D_n/D̂_k to the
// worst-case alpha = D_min/D_max and splits the f- and β-paths; the
// dominance proof is in docs/dag_bounds.md.
//
// Theorem 2's critical-path test itself is a weight mode of the same
// evaluator, ratio_one(): weights f(U_k)/alpha + β_k against the same
// budget, with no deadline ceiling. Its value is at most
// d(f)/alpha + d(β), so it admits whatever the critical-path test
// d(f) <= alpha·(1 - d(β)) admits, and at alpha = 1 with β empty the exact
// DP returns the critical-path value bit for bit (docs/dag_bounds.md).
//
// Evaluation cost: with an interned shape (core/task_graph_shape.h) the
// per-path maximum is taken over the shape's cached dominant path profiles
// in O(touched resources + profile entries), and the "before" value reuses
// the tracker's cached per-stage f-terms. When the profile set is capped,
// three more O(touched) tiers settle most values: the envelope admits, a
// kept profile over budget rejects, and the path-cap knapsack bound admits.
// Only when all three are inconclusive does the exact DP run, and that tier
// alone walks a graph: the shape's label-sequence quotient, O(V + E) of the
// quotient, which returns the canonical graph's DP value bit for bit.
// Decisions always equal the exact all-paths test. Every entry point takes
// a canonical spec (TaskGraphShapeRegistry::canonicalize).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"

namespace frap::core {

class LongPathEvaluator {
 public:
  // Normalized per-path delay budget: the RHS of the condition above. Every
  // admission comparison against it goes through FeasibleRegion::admits_lhs.
  static constexpr double kDelayBudget = 1.0;

  // deadline_ceiling[k] = D̂_k (> 0, finite) per resource. beta[k] is the
  // normalized PCP blocking per resource; empty = all zeros.
  //
  // stage_cap is the victim guard: a per-resource ceiling on f(U_k) itself.
  // The per-path budget above is verified for the NEWCOMER at its admission
  // instant, but a later admission can still raise U_k under tasks admitted
  // earlier with tighter deadlines. Capping every touched f-term at
  // alpha·(1 - betâ) — the same per-resource state envelope every
  // critical-path admission enforces (a single node's f-term never exceeds
  // the path sum) — pins the global state invariant those victims relied
  // on. A touched f-term above the cap maps to +inf weight, so the verdict
  // still flows through one admits_lhs comparison (frap-lint R2). Any
  // critical-path admit satisfies the cap by construction, which is what
  // keeps the dominance direction exact (docs/dag_bounds.md). Required:
  // kNoStageCap disables the guard, which leaves only the admission-instant
  // guarantee and admits deadline misses (docs/dag_bounds.md).
  LongPathEvaluator(const std::vector<double>& deadline_ceiling,
                    const std::vector<double>& beta, double stage_cap);

  // Theorem 2's critical-path test as a weight mode ("ratio-1"): weight
  // f(U_k)/alpha + β_k per node against kDelayBudget, for every path. No
  // deadline ceiling applies, and the victim guard caps f(U_k) at
  // alpha·(1 - β_k) per resource, which every critical-path admit
  // satisfies (docs/dag_bounds.md). beta may be empty (all zeros).
  [[nodiscard]] static LongPathEvaluator ratio_one(
      std::size_t num_resources, double alpha, const std::vector<double>& beta);

  static constexpr double kNoStageCap =
      std::numeric_limits<double>::infinity();

  std::size_t num_resources() const { return terms_.size(); }
  // D̂_k; +inf in ratio-1 mode.
  double deadline_ceiling(std::size_t k) const { return terms_[k].ceiling; }

  // True when the canonical spec honors the static ceiling contract on
  // every touched resource (D_n <= D̂_k). Admission aborts on violation;
  // callers that generate tasks use this to pre-filter.
  [[nodiscard]] bool respects_ceilings(const GraphTaskSpec& spec) const;

  struct Eval {
    double lhs_before = 0;     // path value of the current state
    double lhs_with_task = 0;  // path value with the task's contribution
    bool admitted = false;     // admits_lhs(lhs_with_task, kDelayBudget)
  };

  // Incremental admission evaluation: requires a canonical spec
  // (expect_canonical, an O(1) precondition). Reads the tracker's
  // cached per-stage f-terms for the "before" weights and recomputes f only
  // at the touched resources for the "with task" weights. No heap
  // allocation once the evaluator's scratch is warm. Debug builds cross-
  // check both values bit-exactly against recompute-from-snapshot.
  [[nodiscard]] Eval evaluate(const GraphTaskSpec& spec,
                              const SyntheticUtilizationTracker& tracker);

  // Reference evaluation from an explicit utilization snapshot: the
  // identical profile logic as evaluate() (bit-identical values given
  // bit-identical utilizations — the identity test's hook). Requires a
  // canonical spec.
  [[nodiscard]] double lhs_from_snapshot(const GraphTaskSpec& spec,
                                         std::span<const double> utilizations);

  // Exact all-paths value (the DP), bypassing the profile fast path; the
  // differential and property tests compare against it. Requires a
  // canonical spec; runs the shape's DP in the evaluator's scratch (no
  // allocation once warm).
  [[nodiscard]] double exact_lhs_from_snapshot(
      const GraphTaskSpec& spec, std::span<const double> utilizations);

  // Which tier settled each path value (path_value, below). A value is
  // counted once per call, so one evaluate() adds two.
  struct TierCounts {
    std::uint64_t complete = 0;        // exact over a complete profile set
    std::uint64_t envelope_admit = 0;  // max(kept, envelope) within budget
    std::uint64_t kept_reject = 0;     // a kept profile over budget
    std::uint64_t path_cap_admit = 0;  // path-cap bound within budget
    std::uint64_t dp = 0;              // exact DP over the shape's quotient
  };
  const TierCounts& tier_counts() const { return tiers_; }

 private:
  // The per-resource constants of the weight f · (scale · s) + beta, where
  // s is 1/D_n in ceiling mode and 1 in ratio-1 mode (deadline_scale).
  struct Terms {
    double ceiling = 0;  // D̂_k: the deadline contract
    double scale = 0;    // D̂_k in ceiling mode, 1/alpha in ratio-1 mode
    double beta = 0;
    double cap = 0;      // victim guard on f(U_k)
  };
  LongPathEvaluator(std::vector<Terms> terms, bool per_deadline);

  // s above for a task of deadline D_n: one branch per evaluation, none
  // per resource.
  double deadline_scale(double inv_deadline) const {
    return per_deadline_ ? inv_deadline : 1.0;
  }

  // Per-resource weight of resource k, given its f-term: f · D̂_k/D_n + β_k
  // (ceiling mode) or f/alpha + β_k (ratio-1 mode). Aborts on a ceiling
  // violation.
  double weight_of(std::size_t k, double f_term, Duration deadline,
                   double s) const;

  // Max path value over the shape's cached profiles; exact when the profile
  // set is complete, else envelope admit / kept reject / path-cap admit /
  // exact DP. w_local holds one weight per touched resource of the shape.
  // An admitting tier may report a bound at or above the exact value.
  double path_value(const TaskGraphShape& shape,
                    std::span<const double> w_local);

  // max{w·m : 0 <= m <= path_caps, sum(m) <= max_path_nodes}, rounded up
  // past the DP's own floating-point error (docs/dag_bounds.md): a sound
  // upper bound on the exact DP value.
  double path_cap_bound(const TaskGraphShape& shape,
                        std::span<const double> w_local);

  std::vector<Terms> terms_;
  bool per_deadline_;  // ceiling mode: weights scale with 1/D_n

  // Reused scratch (sized on first use, stable after warmup).
  std::vector<double> w_before_;
  std::vector<double> w_with_;
  std::vector<double> w_resource_;  // dense per-resource weights for the DP
  std::vector<double> dp_dist_;
  std::vector<std::uint32_t> by_weight_;  // touched positions, path-cap order
  std::vector<double> dbg_u_;  // debug cross-check snapshot (kept heap-free)
  TierCounts tiers_;
};

}  // namespace frap::core
