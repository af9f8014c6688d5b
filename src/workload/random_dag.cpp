#include "workload/random_dag.h"

#include <algorithm>

#include "util/check.h"

namespace frap::workload {

using core::GraphEdge;
using core::GraphNode;
using core::GraphTaskSpec;

namespace {

GraphNode random_node(util::Rng& rng, const RandomDagConfig& cfg) {
  GraphNode n;
  n.resource = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(cfg.num_resources) - 1));
  n.demand.compute = rng.uniform(cfg.min_compute, cfg.max_compute);
  return n;
}

void layered_edges(util::Rng& rng, const RandomDagConfig& cfg,
                   GraphTaskSpec& g) {
  const std::size_t n = cfg.num_nodes;
  const std::size_t layers = std::min(
      n, static_cast<std::size_t>(rng.uniform_int(
             static_cast<std::int64_t>(std::max<std::size_t>(1, cfg.min_layers)),
             static_cast<std::int64_t>(
                 std::max(cfg.min_layers, cfg.max_layers)))));
  // layer_of is nondecreasing in node index, so edges to later layers only
  // ever point at higher indices: acyclic by construction.
  std::vector<std::size_t> layer_start(layers + 1);
  for (std::size_t l = 0; l <= layers; ++l) {
    layer_start[l] = l * n / layers;
  }
  std::vector<std::size_t> layer_of(n);
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t v = layer_start[l]; v < layer_start[l + 1]; ++v) {
      layer_of[v] = l;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t l = layer_of[v];
    if (l > 0) {
      // Guaranteed predecessor in the previous layer keeps every non-source
      // reachable (paths span all layers — long paths exist to find).
      const std::size_t lo = layer_start[l - 1];
      const std::size_t hi = layer_start[l] - 1;
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo),
                          static_cast<std::int64_t>(hi)));
      g.edges.push_back(GraphEdge{p, v});
    }
    if (l + 1 < layers && cfg.extra_edge_prob > 0) {
      for (std::size_t w = layer_start[l + 1]; w < n; ++w) {
        if (rng.bernoulli(cfg.extra_edge_prob)) {
          g.edges.push_back(GraphEdge{v, w});
        }
      }
    }
  }
  // The guaranteed-predecessor pass can duplicate an extra edge; dedupe so
  // indegree counts stay exact.
  std::sort(g.edges.begin(), g.edges.end(),
            [](const GraphEdge& a, const GraphEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  g.edges.erase(std::unique(g.edges.begin(), g.edges.end(),
                            [](const GraphEdge& a, const GraphEdge& b) {
                              return a.from == b.from && a.to == b.to;
                            }),
                g.edges.end());
}

void erdos_renyi_edges(util::Rng& rng, const RandomDagConfig& cfg,
                       GraphTaskSpec& g) {
  for (std::size_t i = 0; i + 1 < cfg.num_nodes; ++i) {
    for (std::size_t j = i + 1; j < cfg.num_nodes; ++j) {
      if (rng.bernoulli(cfg.edge_prob)) g.edges.push_back(GraphEdge{i, j});
    }
  }
}

}  // namespace

GraphTaskSpec random_dag(util::Rng& rng, const RandomDagConfig& cfg,
                         std::uint64_t id, Duration deadline) {
  FRAP_EXPECTS(cfg.num_nodes >= 1);
  FRAP_EXPECTS(cfg.num_resources >= 1);
  FRAP_EXPECTS(deadline > 0);
  FRAP_EXPECTS(cfg.min_compute > 0 && cfg.max_compute >= cfg.min_compute);
  GraphTaskSpec g;
  g.id = id;
  g.deadline = deadline;
  g.nodes.reserve(cfg.num_nodes);
  for (std::size_t v = 0; v < cfg.num_nodes; ++v) {
    g.nodes.push_back(random_node(rng, cfg));
  }
  if (cfg.num_nodes > 1) {
    if (cfg.kind == RandomDagConfig::Kind::kLayered) {
      layered_edges(rng, cfg, g);
    } else {
      erdos_renyi_edges(rng, cfg, g);
    }
  }
  return g;
}

}  // namespace frap::workload
