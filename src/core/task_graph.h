// Arbitrary directed-acyclic task graphs (Sec. 3.3, Theorem 2).
//
// A graph task is a DAG of subtasks, each mapped to a resource. Its
// end-to-end delay is the critical path of per-subtask stage delays:
// d(L_1..L_M) = max over source->sink paths of sum(L_i). Substituting
// Theorem 1 gives the per-task feasible region; with PCP blocking,
//
//     d(f(U_{k_i}))  <=  alpha * (1 - d(beta_{k_i})),
//
// which reduces exactly to Eq. 15 for a chain. Multiple subtasks may share
// a resource (they then read the same U_k), matching the paper's
// observation after Theorem 2. Admission evaluates the test per path, as
// the ratio-1 weight mode of the long-path evaluator
// (core/long_path_bound.h, docs/dag_bounds.md), over canonical specs.
//
// A spec is written raw (`nodes`, `edges`) and then canonicalized
// (TaskGraphShapeRegistry::canonicalize): the canonical spec points at an
// interned topology (`shape`) and at its own per-node demands in the
// shape's node order (`demands`). Admission and the DAG runtime take
// canonical specs only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/task.h"

namespace frap::core {

class TaskGraphShape;  // hash-consed topology (task_graph_shape.h)

struct GraphNode {
  std::size_t resource = 0;  // index of the resource (stage server) used
  StageDemand demand;
};

struct GraphEdge {
  std::size_t from = 0;
  std::size_t to = 0;
};

// The per-task half of a canonical spec: each node's demand in the shape's
// canonical node order, and the compute the task places on each resource
// the shape touches. Built once by canonicalize() and never changed;
// canonical specs share it, so copying one is O(1).
struct GraphDemands {
  std::vector<Duration> node_compute;
  // Materialized critical-section segments: node v runs
  // segments[segment_offset[v], segment_offset[v + 1]) (never empty: a
  // node without explicit segments holds one lock-free segment of its
  // compute).
  std::vector<std::uint32_t> segment_offset;
  std::vector<sched::Segment> segments;
  // resource_compute[t] is the summed compute on shape->
  // touched_resources()[t]. A task's contribution there is
  // resource_compute[t] / deadline.
  std::vector<Duration> resource_compute;

  std::span<const sched::Segment> node_segments(std::size_t node) const {
    return {segments.data() + segment_offset[node],
            segment_offset[node + 1] - segment_offset[node]};
  }
};

struct GraphTaskSpec {
  std::uint64_t id = 0;
  Duration deadline = 0;
  double importance = 0;
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;

  // Set by TaskGraphShapeRegistry::canonicalize, with `nodes` and `edges`
  // left empty. The shape is non-owning: the registry must outlive every
  // spec that points at it.
  const TaskGraphShape* shape = nullptr;
  std::shared_ptr<const GraphDemands> demands;

  std::size_t num_nodes() const;

  // True when the spec is canonical, has nodes and a positive deadline, and
  // touches only resources below num_resources. O(1): canonicalize()
  // checked the layout (edges in range, acyclic, valid demands).
  [[nodiscard]] bool valid(std::size_t num_resources) const;

  // Synthetic-utilization contribution per resource of a canonical spec:
  // the compute on that resource divided by D (subtasks sharing a resource
  // accumulate).
  std::vector<double> resource_contributions(std::size_t num_resources) const;
};

// Aborts unless `spec` is canonical: shape and demands set, no layout of
// its own. O(1); admission and the DAG runtime check it on entry.
void expect_canonical(const GraphTaskSpec& spec);

}  // namespace frap::core
