// Hash-consed task-graph topologies (docs/dag_bounds.md).
//
// A production deployment runs millions of concurrent DAG tasks that share
// a few hundred graph *topologies*: the nodes, their resources and the
// edges are fixed per request class, while the id, the deadline, the
// arrival instant and often the per-node demands vary per task. The
// registry here interns each topology once, so every per-topology cost —
// the topological order, the CSR adjacency, and most importantly the
// dominant long-path profiles the admission bound evaluates — is paid at
// registration, not per admission.
//
// Canonicalization: two GraphTaskSpecs intern to the same shape when they
// have the same topology — the same per-node resources and edges under the
// same numbering. Demands take no part in it: a changed compute or lock
// layout aliases, because the canonical spec carries its own demands
// (GraphDemands, core/task_graph.h). Canonical node order is Kahn's
// topological order taking the lowest-index ready node first (the
// identity for a spec laid out in index-topological order). Equality on a
// hash hit compares the full canonical encoding with the registered
// shape's own arrays (they hold the same words, so no copy of the encoding
// is kept), and a hash collision can never alias two distinct topologies.
// A relabeled presentation of a registered graph interns as a separate
// shape: one more registration, never a wrong decision (the long-path
// values do not depend on node numbering).
//
// Canonical specs are layout-free: canonicalize() returns a spec whose
// `shape` and `demands` are set and whose `nodes`/`edges` are empty, so a
// spec that disagrees with its shape cannot be represented. Every reader
// of a canonical spec's topology reads the shape, and every reader of its
// demands reads `demands`.
//
// Dominant path profiles: the long-path bound needs, for nonnegative
// per-resource weights w, the value max over source->sink paths P of
// sum_{i in P} w[resource(i)]. A path only enters through its *resource
// multiplicity vector* m_P (how often P visits each resource), and for
// w >= 0 the maximum is attained on a Pareto-maximal m_P. The enumeration
// below keeps, per node, the Pareto frontier of path profiles ending there
// (capped; overflow folds into a componentwise-max envelope that stays an
// upper bound on every dropped path, and carries the most nodes on any path
// it covers). The kept profiles are stored as one dense matrix, lane p of
// column t holding profile p's visits to touched resource t. When
// `profiles_complete()` they evaluate the path maximum EXACTLY in one
// O(touched * lanes) pass, independent of graph size.
// Otherwise the evaluator admits on a knapsack over the envelope and its
// visit total, rejects on a kept profile, and runs the exact DP only when
// both are inconclusive (core/long_path_bound.h).
//
// Exact DP quotient: the DP's value is the max over paths of the left-to-
// right binary64 sum of w[resource(i)]. fl(x + w) is monotone in x and max
// is exact, so the value depends only on the SET of resource-label
// sequences of the shape's paths. Registration therefore also builds a
// quotient graph with the same set: one forward pass merges nodes with the
// same resource and the same set of predecessor classes, then one backward
// pass merges classes with the same resource and the same set of successor
// classes. longest_path_weight() walks the quotient (a third of the nodes
// of a 10k-node random shape) and returns the same bits the DP over the
// canonical graph would, for any weights (docs/dag_bounds.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/task_graph.h"
#include "util/time.h"

namespace frap::core {

class TaskGraphShape {
 public:
  // Registry-assigned dense id (index into registry order).
  std::uint64_t id() const { return id_; }
  std::uint64_t hash() const { return hash_; }

  std::size_t num_nodes() const { return node_resource_.size(); }
  std::size_t num_edges() const { return succ_.size(); }

  // Canonical per-node resources. Canonical order is topological: every
  // edge goes from a lower to a higher canonical index.
  std::span<const std::uint32_t> node_resource() const {
    return node_resource_;
  }

  // CSR successor adjacency over canonical node ids.
  std::span<const std::uint32_t> successors(std::size_t node) const {
    return {succ_.data() + succ_offset_[node],
            succ_offset_[node + 1] - succ_offset_[node]};
  }
  std::span<const std::uint32_t> indegree() const { return indegree_; }

  // Resources this shape touches (sorted, unique): the index space of a
  // canonical spec's GraphDemands::resource_compute.
  std::span<const std::uint32_t> touched_resources() const {
    return touched_resources_;
  }

  // --- dominant long-path profiles --------------------------------------
  // The kept profiles as one dense column-major matrix of multiplicities:
  // column t holds kProfileLanes doubles, and lane p of it is how often
  // kept profile p visits touched_resources()[t]. A profile that skips a
  // resource holds 0 there, and the lanes past the last kept profile are
  // all zero, so every shape runs the one kernel with no tail (about
  // 1 KiB for 8 touched resources). kProfileLanes is
  // TaskGraphShapeRegistry::kFinalProfileCap.
  static constexpr std::size_t kProfileLanes = 16;
  std::span<const double> profile_matrix() const { return profile_matrix_; }

  // True when the kept profiles are the COMPLETE Pareto frontier: the path
  // maximum over them is exact for any nonnegative weights.
  [[nodiscard]] bool profiles_complete() const { return profiles_complete_; }

  // Componentwise-max envelope over every path whose prefix the caps
  // dropped (empty, with a zero total, when profiles_complete()). Such a
  // path's profile m satisfies m <= envelope() in every component and
  // sum(m) <= envelope_total(), so for w >= 0 the knapsack
  // max{w·x : 0 <= x <= envelope, sum(x) <= envelope_total} bounds it.
  // Sparse: one entry per touched position with a nonzero component.
  struct EnvelopeEntry {
    std::uint32_t local = 0;  // index into touched_resources()
    std::uint32_t mult = 0;   // the component
  };
  std::span<const EnvelopeEntry> envelope() const { return envelope_; }
  std::uint32_t envelope_total() const { return envelope_total_; }

  // The most nodes on any source->sink path: the length of the DP's longest
  // binary64 sum, which the evaluator's rounding slack scales with.
  std::uint32_t max_path_nodes() const { return max_path_nodes_; }

  // Longest source->sink path with per-node weights w[resource(node)]: the
  // exact DP over the label-sequence quotient into caller scratch (grown to
  // quotient_num_nodes(), never shrunk; no allocation once warm). Bit-
  // identical to the same DP over the canonical graph. The evaluator's
  // last tier.
  [[nodiscard]] double longest_path_weight(
      std::span<const double> weight_by_resource,
      std::vector<double>& scratch_dist) const;

  // The quotient the DP walks, in pull form. Quotient order is
  // topological: every predecessor has a lower index.
  std::size_t quotient_num_nodes() const { return quotient_resource_.size(); }
  std::size_t quotient_num_edges() const { return quotient_pred_.size(); }
  std::span<const std::uint32_t> quotient_resource() const {
    return quotient_resource_;
  }
  std::span<const std::uint32_t> quotient_predecessors(std::size_t q) const {
    return {quotient_pred_.data() + quotient_pred_offset_[q],
            quotient_pred_offset_[q + 1] - quotient_pred_offset_[q]};
  }

 private:
  friend class TaskGraphShapeRegistry;
  TaskGraphShape() = default;

  // True when `encoding` is this topology's canonical encoding: the
  // registry's equality proof on a hash hit.
  [[nodiscard]] bool layout_equals(
      std::span<const std::uint64_t> encoding) const;

  std::uint64_t id_ = 0;
  std::uint64_t hash_ = 0;

  std::vector<std::uint32_t> node_resource_;
  std::vector<std::uint32_t> succ_offset_;
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> indegree_;

  std::vector<std::uint32_t> touched_resources_;

  std::vector<double> profile_matrix_;  // touched x kProfileLanes
  std::vector<EnvelopeEntry> envelope_;
  std::uint32_t envelope_total_ = 0;
  bool profiles_complete_ = true;
  std::uint32_t max_path_nodes_ = 0;

  std::vector<std::uint32_t> quotient_resource_;
  std::vector<std::uint32_t> quotient_pred_offset_{0};
  std::vector<std::uint32_t> quotient_pred_;
};

// Hash-consing registry. Owns the shapes; pointers remain stable for the
// registry's lifetime (admission controllers and runtimes keep them).
// Single-threaded like the rest of the simulator core (frap-lint R5); the
// sharded service would shard registries alongside trackers.
class TaskGraphShapeRegistry {
 public:
  // Per-node Pareto-set cap during profile enumeration, and the cap on the
  // final kept profile count. Overflow folds into the envelope and clears
  // profiles_complete().
  static constexpr std::size_t kNodeProfileCap = 8;
  static constexpr std::size_t kFinalProfileCap = 16;
  static_assert(kFinalProfileCap == TaskGraphShape::kProfileLanes);

  TaskGraphShapeRegistry() = default;
  TaskGraphShapeRegistry(const TaskGraphShapeRegistry&) = delete;
  TaskGraphShapeRegistry& operator=(const TaskGraphShapeRegistry&) = delete;

  // Canonical spec for `spec`: id, deadline and importance copied, `shape`
  // set to the interned topology, `demands` to a new GraphDemands in the
  // shape's node order, `nodes`/`edges` left empty. O(1) to copy; the form
  // admission and the DAG runtime take without re-walking the graph per
  // task. The shape is the registered one with the same topology, or a new
  // one, canonicalized with its profiles enumerated. Requires an
  // un-interned spec with edges in range, no cycle and valid demands; the
  // empty graph is allowed. Aborts otherwise.
  [[nodiscard]] GraphTaskSpec canonicalize(const GraphTaskSpec& spec);

  std::size_t size() const { return shapes_.size(); }
  const TaskGraphShape& shape(std::size_t i) const { return *shapes_[i]; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  // A spec's topology in canonical numbering, and the scratch it is built
  // in. The registry keeps one (form_) and only ever grows it, so
  // canonicalizing a spec of a registered topology allocates nothing but
  // its GraphDemands.
  struct CanonicalForm {
    std::vector<std::uint32_t> order;              // canonical -> original id
    std::vector<std::uint32_t> canon_of_original;  // original id -> canonical
    std::vector<std::uint64_t> encoding;
    std::uint64_t hash = 0;
    // Scratch: the original successor CSR, its fill cursors, and Kahn's
    // ready set (a min-heap).
    std::vector<std::uint32_t> succ_offset;
    std::vector<std::uint32_t> succ;
    std::vector<std::uint32_t> fill;
    std::vector<std::uint32_t> indegree;
    std::vector<std::uint32_t> ready;
  };
  // Overwrites `form` with the canonical form of `spec`.
  static void canonical_form(const GraphTaskSpec& spec, CanonicalForm& form);
  const TaskGraphShape* intern(const CanonicalForm& form);
  static std::unique_ptr<TaskGraphShape> build_shape(
      const CanonicalForm& form);
  // Both passes read the canonical predecessor CSR (pred_offset, pred).
  static void enumerate_profiles(TaskGraphShape& shape,
                                 std::span<const std::uint32_t> pred_offset,
                                 std::span<const std::uint32_t> pred);
  static void build_quotient(TaskGraphShape& shape,
                             std::span<const std::uint32_t> pred_offset,
                             std::span<const std::uint32_t> pred);

  CanonicalForm form_;
  // canonicalize's (resource, compute) pairs.
  std::vector<std::pair<std::uint32_t, Duration>> per_resource_;

  std::vector<std::unique_ptr<TaskGraphShape>> shapes_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace frap::core
