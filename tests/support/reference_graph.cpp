#include "support/reference_graph.h"

#include <algorithm>
#include <functional>

#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::testing {

std::vector<std::size_t> reference_topological_order(
    const core::GraphTaskSpec& raw) {
  const std::size_t n = raw.nodes.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const auto& e : raw.edges) {
    out[e.from].push_back(e.to);
    ++indegree[e.to];
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  // Smallest ready index first, through a min-heap.
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

double reference_critical_path(const core::GraphTaskSpec& raw,
                               std::span<const double> node_weights) {
  FRAP_EXPECTS(node_weights.size() == raw.nodes.size());
  const auto order = reference_topological_order(raw);
  FRAP_EXPECTS(!order.empty() || raw.nodes.empty());
  std::vector<std::vector<std::size_t>> in(raw.nodes.size());
  for (const auto& e : raw.edges) in[e.to].push_back(e.from);

  // dist[v] = max path weight ending at v (inclusive).
  std::vector<double> dist(raw.nodes.size(), 0);
  double best = 0;
  for (std::size_t v : order) {
    double longest_pred = 0;
    for (std::size_t p : in[v]) longest_pred = std::max(longest_pred, dist[p]);
    dist[v] = longest_pred + node_weights[v];
    best = std::max(best, dist[v]);
  }
  return best;
}

std::vector<double> reference_resource_contributions(
    const core::GraphTaskSpec& raw, std::size_t num_resources) {
  FRAP_EXPECTS(raw.deadline > 0);
  std::vector<double> c(num_resources, 0);
  for (const auto& n : raw.nodes) {
    FRAP_EXPECTS(n.resource < num_resources);
    c[n.resource] += util::safe_div(n.demand.compute, raw.deadline);
  }
  return c;
}

namespace {

// Critical path with node i weighted weight_by_resource[resource(i)].
double critical_path_by_resource(const core::GraphTaskSpec& raw,
                                 std::span<const double> weight_by_resource) {
  std::vector<double> w(raw.nodes.size());
  for (std::size_t i = 0; i < raw.nodes.size(); ++i) {
    FRAP_EXPECTS(raw.nodes[i].resource < weight_by_resource.size());
    w[i] = weight_by_resource[raw.nodes[i].resource];
  }
  return reference_critical_path(raw, w);
}

}  // namespace

ReferenceGraphRegionEvaluator::ReferenceGraphRegionEvaluator(
    double alpha, std::vector<double> beta)
    : alpha_(alpha), beta_(std::move(beta)) {
  FRAP_EXPECTS(alpha_ > 0 && alpha_ <= 1.0);
  for (double b : beta_) FRAP_EXPECTS(b >= 0);
}

double ReferenceGraphRegionEvaluator::lhs(
    const core::GraphTaskSpec& raw,
    std::span<const double> utilizations) const {
  FRAP_EXPECTS(raw.shape == nullptr);
  std::vector<double> w(utilizations.size());
  for (const auto& n : raw.nodes) {
    FRAP_EXPECTS(n.resource < utilizations.size());
    if (utilizations[n.resource] >= 1.0) return util::kInf;
    w[n.resource] = core::stage_delay_factor(utilizations[n.resource]);
  }
  return critical_path_by_resource(raw, w);
}

double ReferenceGraphRegionEvaluator::bound(
    const core::GraphTaskSpec& raw) const {
  FRAP_EXPECTS(raw.shape == nullptr);
  if (beta_.empty()) return alpha_;
  std::size_t width = 0;
  for (const auto& n : raw.nodes) width = std::max(width, n.resource + 1);
  std::vector<double> w(width);
  for (const auto& n : raw.nodes) {
    w[n.resource] = n.resource < beta_.size() ? beta_[n.resource] : 0.0;
  }
  return alpha_ * (1.0 - critical_path_by_resource(raw, w));
}

bool ReferenceGraphRegionEvaluator::admits(
    const core::GraphTaskSpec& raw,
    std::span<const double> utilizations) const {
  return core::FeasibleRegion::admits_lhs(lhs(raw, utilizations), bound(raw));
}

core::GraphTaskSpec from_pipeline(const core::TaskSpec& spec) {
  core::GraphTaskSpec g;
  g.id = spec.id;
  g.deadline = spec.deadline;
  g.importance = spec.importance;
  g.nodes.reserve(spec.stages.size());
  for (std::size_t j = 0; j < spec.stages.size(); ++j) {
    g.nodes.push_back(core::GraphNode{j, spec.stages[j]});
    if (j > 0) g.edges.push_back(core::GraphEdge{j - 1, j});
  }
  return g;
}

}  // namespace frap::testing
