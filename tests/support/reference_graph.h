// Test-support oracle for Theorem 2 on raw (un-canonicalized) task graphs.
//
// These are the implementations src/ used before the critical-path test
// became the ratio-1 weight mode of core::LongPathEvaluator
// (docs/dag_bounds.md), frozen with the same outputs. They read a spec's
// own `nodes` and `edges` and never its shape:
//   * reference_topological_order / reference_critical_path: Kahn's order
//     (lowest ready index first) and the longest-path DP over it, with
//     per-node weights summed along each path in path order;
//   * ReferenceGraphRegionEvaluator: the critical-path test
//     d(f(U_{k_i})) <= alpha * (1 - d(beta_{k_i})) from a full utilization
//     snapshot, the former GraphRegionEvaluator;
//   * reference_resource_contributions: sum over nodes of C / D per
//     resource, in node order;
//   * from_pipeline: a pipeline TaskSpec as its chain graph.
// tests/dag_critical_path_differential_test.cpp compares the ratio-1 mode
// against them. Nothing in src/ depends on this file.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/task.h"
#include "core/task_graph.h"

namespace frap::testing {

// Topological order of a raw spec's nodes; empty when the graph has a cycle.
[[nodiscard]] std::vector<std::size_t> reference_topological_order(
    const core::GraphTaskSpec& raw);

// Max over source->sink paths of the sum of node_weights[i] along the path.
// node_weights.size() == raw.nodes.size(); the graph must be acyclic.
[[nodiscard]] double reference_critical_path(
    const core::GraphTaskSpec& raw, std::span<const double> node_weights);

// Per-resource synthetic-utilization contribution: C / D summed over the
// nodes on each resource.
[[nodiscard]] std::vector<double> reference_resource_contributions(
    const core::GraphTaskSpec& raw, std::size_t num_resources);

// Theorem 2 over a raw spec's critical path.
class ReferenceGraphRegionEvaluator {
 public:
  // beta_per_resource may be empty (all zeros) or shorter than the
  // resource count (missing entries are zero).
  ReferenceGraphRegionEvaluator(double alpha,
                                std::vector<double> beta_per_resource);

  // d(f(U_{k_i})) over the task's graph; +infinity if any touched U >= 1.
  [[nodiscard]] double lhs(const core::GraphTaskSpec& raw,
                           std::span<const double> utilizations) const;

  // alpha * (1 - d(beta_{k_i})) for this task's graph.
  [[nodiscard]] double bound(const core::GraphTaskSpec& raw) const;

  // admits_lhs(lhs(raw, utilizations), bound(raw)).
  [[nodiscard]] bool admits(const core::GraphTaskSpec& raw,
                            std::span<const double> utilizations) const;

 private:
  double alpha_;
  std::vector<double> beta_;
};

// Chain-shaped graph of a pipeline TaskSpec: stage j becomes node j on
// resource j, with an edge j-1 -> j.
[[nodiscard]] core::GraphTaskSpec from_pipeline(const core::TaskSpec& spec);

}  // namespace frap::testing
