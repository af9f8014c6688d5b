// Arbitrary directed-acyclic task graphs (Sec. 3.3, Theorem 2).
//
// A graph task is a DAG of subtasks, each mapped to a resource. Its
// end-to-end delay is the critical path of per-subtask stage delays:
// d(L_1..L_M) = max over source->sink paths of sum(L_i). Substituting
// Theorem 1 gives the per-task feasible region. With PCP blocking the
// sufficient condition implemented here is
//
//     d(f(U_{k_i}))  <=  alpha * (1 - d(beta_{k_i})),
//
// which follows from d's subadditivity (max-of-sums) plus D_n/D_max >= alpha
// and reduces exactly to Eq. 15 for a chain. Multiple subtasks may share a
// resource (they then read the same U_k), matching the paper's observation
// after Theorem 2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/feasible_region.h"
#include "core/task.h"

namespace frap::core {

class TaskGraphShape;  // hash-consed topology + layout (task_graph_shape.h)

struct GraphNode {
  std::size_t resource = 0;  // index of the resource (stage server) used
  StageDemand demand;
};

struct GraphEdge {
  std::size_t from = 0;
  std::size_t to = 0;
};

struct GraphTaskSpec {
  std::uint64_t id = 0;
  Duration deadline = 0;
  double importance = 0;
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;

  // Interned shape (set by TaskGraphShapeRegistry::canonicalize; non-
  // owning, the registry must outlive every spec that points at it). An
  // interned spec is layout-free: `nodes` and `edges` stay empty and the
  // shape is the only copy of the layout, so admission and the DAG runtime
  // reuse its cached path structure without re-walking the graph per task.
  // nullptr keeps every un-interned path working.
  const TaskGraphShape* shape = nullptr;

  std::size_t num_nodes() const;

  // True when edges reference valid nodes and the graph is acyclic. O(1)
  // for an interned spec: the registry validated its layout.
  [[nodiscard]] bool valid(std::size_t num_resources) const;

  // Per-node views of the spec's own layout. An interned spec has none;
  // read its shape instead.
  // Topological order of node indices. Requires valid().
  std::vector<std::size_t> topological_order() const;

  // Critical path: max over paths of the sum of node_weights[i].
  // node_weights.size() must equal num_nodes(). Requires acyclicity.
  double critical_path(std::span<const double> node_weights) const;

  // Critical path with node i weighted weight_by_resource[resource(i)]:
  // the shape's DP when interned, else a DP over the spec's own layout.
  // Bit-identical either way (each path sums in source-to-sink order).
  double critical_path_by_resource(
      std::span<const double> weight_by_resource) const;

  // Resources the task touches, sorted and unique.
  std::vector<std::uint32_t> touched_resources() const;

  // Synthetic-utilization contribution per resource: sum of C on that
  // resource divided by D (subtasks sharing a resource accumulate).
  std::vector<double> resource_contributions(std::size_t num_resources) const;

  // Convenience: builds a chain-shaped (pipeline) graph task from a
  // pipeline TaskSpec with stage j on resource j.
  static GraphTaskSpec from_pipeline(const TaskSpec& spec);
};

// Evaluates Theorem 2 for one task shape against a utilization snapshot.
class GraphRegionEvaluator {
 public:
  // beta_per_resource may be empty (treated as all zeros).
  GraphRegionEvaluator(double alpha, std::vector<double> beta_per_resource);

  // d(f(U_{k_i})) over the task's graph. +infinity if any touched U >= 1.
  double lhs(const GraphTaskSpec& task,
             std::span<const double> utilizations) const;

  // alpha * (1 - d(beta_{k_i})) for this task's graph.
  double bound(const GraphTaskSpec& task) const;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  std::vector<double> beta_;
};

}  // namespace frap::core
