#include "core/task_graph.h"

#include <algorithm>

#include "core/stage_delay.h"
#include "core/task_graph_shape.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

namespace {

// Kahn's algorithm; returns empty when a cycle exists (distinguishable from
// the empty graph by the caller).
std::vector<std::size_t> topo_sort(std::size_t n,
                                   const std::vector<GraphEdge>& edges) {
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const auto& e : edges) {
    out[e.from].push_back(e.to);
    ++indegree[e.to];
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  // Pop smallest index first for deterministic order. A min-heap keeps the
  // whole sort O((V+E) log V); re-sorting `ready` on every pop degraded to
  // O(V^2 log V) on sparse 10k-node DAGs (bench/dag_admission).
  std::make_heap(ready.begin(), ready.end(), std::greater<>());
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const std::size_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (std::size_t w : out[v]) {
      if (--indegree[w] == 0) {
        ready.push_back(w);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order.size() != n) order.clear();  // cycle
  return order;
}

}  // namespace

std::size_t GraphTaskSpec::num_nodes() const {
  return shape != nullptr ? shape->num_nodes() : nodes.size();
}

bool GraphTaskSpec::valid(std::size_t num_resources) const {
  if (shape != nullptr) {
    return deadline > 0 && nodes.empty() && edges.empty() &&
           shape->num_nodes() > 0 &&
           shape->touched_resources().back() < num_resources;
  }
  if (deadline <= 0 || nodes.empty()) return false;
  for (const auto& n : nodes) {
    if (n.resource >= num_resources) return false;
    if (!n.demand.valid()) return false;
  }
  for (const auto& e : edges) {
    if (e.from >= nodes.size() || e.to >= nodes.size()) return false;
    if (e.from == e.to) return false;
  }
  return !topo_sort(nodes.size(), edges).empty();
}

std::vector<std::size_t> GraphTaskSpec::topological_order() const {
  FRAP_EXPECTS(shape == nullptr);
  auto order = topo_sort(nodes.size(), edges);
  FRAP_EXPECTS(!order.empty() || nodes.empty());
  return order;
}

double GraphTaskSpec::critical_path(
    std::span<const double> node_weights) const {
  FRAP_EXPECTS(node_weights.size() == nodes.size());
  const auto order = topological_order();
  std::vector<std::vector<std::size_t>> in(nodes.size());
  for (const auto& e : edges) in[e.to].push_back(e.from);

  // dist[v] = max path weight ending at v (inclusive).
  std::vector<double> dist(nodes.size(), 0);
  double best = 0;
  for (std::size_t v : order) {
    double longest_pred = 0;
    for (std::size_t p : in[v]) longest_pred = std::max(longest_pred, dist[p]);
    dist[v] = longest_pred + node_weights[v];
    best = std::max(best, dist[v]);
  }
  return best;
}

double GraphTaskSpec::critical_path_by_resource(
    std::span<const double> weight_by_resource) const {
  if (shape != nullptr) {
    std::vector<double> scratch;
    return shape->longest_path_weight(weight_by_resource, scratch);
  }
  std::vector<double> w(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    FRAP_EXPECTS(nodes[i].resource < weight_by_resource.size());
    w[i] = weight_by_resource[nodes[i].resource];
  }
  return critical_path(w);
}

std::vector<std::uint32_t> GraphTaskSpec::touched_resources() const {
  if (shape != nullptr) {
    const auto touched = shape->touched_resources();
    return {touched.begin(), touched.end()};
  }
  std::vector<std::uint32_t> touched;
  touched.reserve(nodes.size());
  for (const auto& n : nodes) {
    touched.push_back(static_cast<std::uint32_t>(n.resource));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

std::vector<double> GraphTaskSpec::resource_contributions(
    std::size_t num_resources) const {
  FRAP_EXPECTS(deadline > 0);
  std::vector<double> c(num_resources, 0);
  if (shape != nullptr) {
    const auto touched = shape->touched_resources();
    const auto compute = shape->resource_compute();
    for (std::size_t t = 0; t < touched.size(); ++t) {
      FRAP_EXPECTS(touched[t] < num_resources);
      c[touched[t]] = util::safe_div(compute[t], deadline);
    }
    return c;
  }
  for (const auto& n : nodes) {
    FRAP_EXPECTS(n.resource < num_resources);
    c[n.resource] += util::safe_div(n.demand.compute, deadline);
  }
  return c;
}

GraphTaskSpec GraphTaskSpec::from_pipeline(const TaskSpec& spec) {
  GraphTaskSpec g;
  g.id = spec.id;
  g.deadline = spec.deadline;
  g.importance = spec.importance;
  g.nodes.reserve(spec.stages.size());
  for (std::size_t j = 0; j < spec.stages.size(); ++j) {
    g.nodes.push_back(GraphNode{j, spec.stages[j]});
    if (j > 0) g.edges.push_back(GraphEdge{j - 1, j});
  }
  return g;
}

GraphRegionEvaluator::GraphRegionEvaluator(double alpha,
                                           std::vector<double> beta)
    : alpha_(alpha), beta_(std::move(beta)) {
  FRAP_EXPECTS(alpha_ > 0 && alpha_ <= 1.0);
  for (double b : beta_) FRAP_EXPECTS(b >= 0);
}

double GraphRegionEvaluator::lhs(const GraphTaskSpec& task,
                                 std::span<const double> utilizations) const {
  std::vector<double> w(utilizations.size());
  for (std::uint32_t r : task.touched_resources()) {
    FRAP_EXPECTS(r < utilizations.size());
    if (utilizations[r] >= 1.0) return util::kInf;
    w[r] = stage_delay_factor(utilizations[r]);
  }
  return task.critical_path_by_resource(w);
}

double GraphRegionEvaluator::bound(const GraphTaskSpec& task) const {
  if (beta_.empty()) return alpha_;
  const auto touched = task.touched_resources();
  std::vector<double> w(touched.empty() ? 0 : touched.back() + 1);
  for (std::uint32_t r : touched) w[r] = r < beta_.size() ? beta_[r] : 0.0;
  const double blocking_path = task.critical_path_by_resource(w);
  return alpha_ * (1.0 - blocking_path);
}

}  // namespace frap::core
