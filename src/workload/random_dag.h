// Seeded random DAG-task generators (tests, fuzzing, bench/dag_admission).
//
// Two families, both acyclic BY CONSTRUCTION (every edge goes from a lower
// to a higher node index, so no validity re-check can ever fail):
//   * layered — nodes are partitioned into L layers; edges go from a layer
//     to a strictly later one, biased toward the next layer. This is the
//     fork-join / stage-parallel shape of real inference and media
//     pipelines, and (with many same-resource nodes per layer) the shape
//     that stresses the long-path bound's profile enumeration.
//   * Erdős–Rényi — every forward pair (i, j), i < j, carries an edge with
//     probability p. The unstructured soup that fuzzes canonicalization.
//
// Determinism: all draws go through util::Rng (frap-lint R5); the same seed
// yields the same graph on every platform.
#pragma once

#include <cstddef>

#include "core/task_graph.h"
#include "util/rng.h"

namespace frap::workload {

struct RandomDagConfig {
  enum class Kind { kLayered, kErdosRenyi };
  Kind kind = Kind::kLayered;

  std::size_t num_nodes = 16;
  std::size_t num_resources = 4;

  // Layered shape: layer count is drawn in [min_layers, max_layers]
  // (clamped to num_nodes); each non-first-layer node gets at least one
  // predecessor in the previous layer plus extra back-edges with
  // probability extra_edge_prob per candidate.
  std::size_t min_layers = 2;
  std::size_t max_layers = 6;
  double extra_edge_prob = 0.2;

  // Erdős–Rényi: forward-edge probability.
  double edge_prob = 0.15;

  // Per-node compute drawn uniform in [min_compute, max_compute).
  Duration min_compute = 1 * kMilli;
  Duration max_compute = 10 * kMilli;
};

// One random DAG task with the given id/deadline. Node resources are drawn
// uniformly. The result is valid(cfg.num_resources) by construction and in
// index-topological layout (every edge from lower to higher index).
core::GraphTaskSpec random_dag(util::Rng& rng, const RandomDagConfig& cfg,
                               std::uint64_t id, Duration deadline);

}  // namespace frap::workload
