// Differential tests for the interned shape's derived structures against
// the implementations they replaced (tests/support/reference_shape.h):
//
//   * the exact DP over the label-sequence quotient returns the same bits
//     (memcmp on the double) as the push DP over the canonical graph, on
//     random and hand-built shapes and on weights with ties, zeros, +inf
//     and overflowing sums;
//   * the quotient is never larger than the shape, is topologically
//     ordered, and keeps at most one source class per touched resource;
//   * the flat profile enumerator yields the same profiles (in order, as
//     the lanes of the dense profile matrix, zeros included), envelope and
//     its visit total, max path nodes and completeness flag over 3000
//     random DAGs of 1-1500 nodes on 1-12 resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "support/reference_shape.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Erdős–Rényi DAG the way the benchmark's shape pool draws it: every pair
// i < j is an edge with probability min(0.25, degree / n), walked with
// geometric skips so large shapes stay cheap to generate.
core::GraphTaskSpec sparse_er_dag(util::Rng& rng, std::size_t n,
                                  std::size_t resources, double degree) {
  core::GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes.resize(n);
  for (auto& node : g.nodes) {
    node.resource = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(resources) - 1));
    node.demand.compute = rng.uniform(1e-6, 3e-6);
  }
  const double p = std::min(0.25, degree / static_cast<double>(n));
  const double log_q = std::log1p(-p);
  std::size_t i = 0;
  std::size_t j = 0;  // the pair (i, i + 1 + j)
  while (i + 1 < n) {
    const double u = 1.0 - rng.uniform01();
    j += static_cast<std::size_t>(std::floor(std::log(u) / log_q));
    while (i + 1 < n && j >= n - 1 - i) {
      j -= n - 1 - i;
      ++i;
    }
    if (i + 1 >= n) break;
    g.edges.push_back(core::GraphEdge{i, i + 1 + j});
    ++j;
  }
  return g;
}

// The same graph under a random node numbering, with a few edges listed
// twice: canonical order then differs from the input order, and the CSR
// carries duplicate edges.
core::GraphTaskSpec relabeled(util::Rng& rng, const core::GraphTaskSpec& g) {
  std::vector<std::size_t> perm(g.nodes.size());
  for (std::size_t v = 0; v < perm.size(); ++v) perm[v] = v;
  rng.shuffle(perm);
  core::GraphTaskSpec out = g;
  for (std::size_t v = 0; v < perm.size(); ++v) out.nodes[perm[v]] = g.nodes[v];
  out.edges.clear();
  for (const auto& e : g.edges) {
    out.edges.push_back({perm[e.from], perm[e.to]});
    if (rng.bernoulli(0.05)) out.edges.push_back({perm[e.from], perm[e.to]});
  }
  return out;
}

// A random shape of 1..max_nodes nodes (log-uniform) on 1..12 resources.
core::GraphTaskSpec random_shape(util::Rng& rng, std::size_t max_nodes) {
  const auto n = static_cast<std::size_t>(std::exp(
      rng.uniform(0.0, std::log(static_cast<double>(max_nodes) + 1.0))));
  const std::size_t nodes = std::clamp<std::size_t>(n, 1, max_nodes);
  const auto resources = static_cast<std::size_t>(rng.uniform_int(1, 12));
  core::GraphTaskSpec g;
  const std::int64_t kind = rng.uniform_int(0, 3);
  if (kind == 0 || nodes > 400) {
    g = sparse_er_dag(rng, nodes, resources, rng.uniform(0.5, 6.0));
  } else {
    workload::RandomDagConfig cfg;
    cfg.kind = kind == 1 ? workload::RandomDagConfig::Kind::kErdosRenyi
                         : workload::RandomDagConfig::Kind::kLayered;
    cfg.num_nodes = nodes;
    cfg.num_resources = resources;
    cfg.edge_prob = std::min(0.3, rng.uniform(0.5, 5.0) / nodes);
    cfg.min_layers = 2;
    cfg.max_layers = std::max<std::size_t>(2, nodes / 3);
    cfg.extra_edge_prob = std::min(0.3, rng.uniform(0.0, 3.0) / nodes);
    g = workload::random_dag(rng, cfg, 1, 1.0);
  }
  return rng.bernoulli(0.25) ? relabeled(rng, g) : g;
}

// Weight vectors that stress the DP's rounding and ties: uniform draws, one
// value everywhere, a few quantized values (ties across paths), zeros, a
// +inf resource, and weights whose path sums overflow to +inf.
std::vector<std::vector<double>> weight_cases(util::Rng& rng,
                                              std::size_t resources) {
  std::vector<std::vector<double>> cases;
  auto add = [&](auto draw) {
    std::vector<double>& w = cases.emplace_back(resources);
    for (std::size_t k = 0; k < resources; ++k) w[k] = draw(k);
  };
  add([&](std::size_t) { return rng.uniform(0.0, 1.0); });
  add([&](std::size_t) { return rng.uniform(0.0, 1e-3); });
  add([](std::size_t) { return 0.1; });
  add([](std::size_t) { return 0.0; });
  add([&](std::size_t) {
    constexpr double kLevels[] = {0.0, 0.1, 0.3, 1.0 / 3.0};
    return kLevels[rng.uniform_int(0, 3)];
  });
  const auto hot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(resources) - 1));
  add([&](std::size_t k) { return k == hot ? kInf : rng.uniform(0.0, 1.0); });
  add([&](std::size_t k) { return k == hot ? kInf : 0.0; });
  add([&](std::size_t) { return rng.uniform(1e306, 1e308); });
  return cases;
}

// Structural invariants of the quotient, plus bit-equality of the two DPs
// under every weight case.
void check_quotient(util::Rng& rng, const core::TaskGraphShape& shape,
                    std::size_t resources) {
  const std::size_t q = shape.quotient_num_nodes();
  ASSERT_LE(q, shape.num_nodes());
  ASSERT_LE(shape.quotient_num_edges(), shape.num_edges());
  const auto touched = shape.touched_resources();
  std::vector<int> sources(resources, 0);
  for (std::size_t v = 0; v < q; ++v) {
    const std::uint32_t r = shape.quotient_resource()[v];
    ASSERT_TRUE(std::binary_search(touched.begin(), touched.end(), r));
    const auto preds = shape.quotient_predecessors(v);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      ASSERT_LT(preds[i], v);  // topological
      if (i > 0) {
        ASSERT_LT(preds[i - 1], preds[i]);  // sorted, no repeats
      }
    }
    if (preds.empty()) {
      ASSERT_LE(++sources[r], 1) << "resource " << r;
    }
  }

  std::vector<double> scratch;
  for (const auto& w : weight_cases(rng, resources)) {
    const double want = testing::reference_longest_path_weight(shape, w);
    const double got = shape.longest_path_weight(w, scratch);
    ASSERT_TRUE(same_bits(want, got))
        << want << " vs " << got << " on " << shape.num_nodes() << " nodes";
  }
}

void expect_same_entries(
    std::span<const core::TaskGraphShape::EnvelopeEntry> got,
    const std::vector<testing::ReferenceProfiles::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].local, want[i].local);
    EXPECT_EQ(got[i].mult, want[i].mult);
  }
}

// The dense profile matrix against the reference's sparse profiles: every
// entry of every kept lane, zeros included, and all-zero padding lanes.
void expect_same_matrix(const core::TaskGraphShape& shape,
                        const testing::ReferenceProfiles& want) {
  const std::size_t width = shape.touched_resources().size();
  constexpr std::size_t lanes = core::TaskGraphShape::kProfileLanes;
  ASSERT_LE(want.profiles.size(), lanes);
  const auto matrix = shape.profile_matrix();
  ASSERT_EQ(matrix.size(), width * lanes);
  std::vector<double> dense(width);
  for (std::size_t p = 0; p < lanes; ++p) {
    std::fill(dense.begin(), dense.end(), 0.0);
    if (p < want.profiles.size()) {
      for (const auto& e : want.profiles[p]) dense[e.local] = e.mult;
    }
    for (std::size_t t = 0; t < width; ++t) {
      ASSERT_EQ(matrix[t * lanes + p], dense[t])
          << "lane " << p << " column " << t;
    }
  }
}

void check_profiles(const core::TaskGraphShape& shape) {
  const testing::ReferenceProfiles want = testing::reference_profiles(shape);
  expect_same_matrix(shape, want);
  expect_same_entries(shape.envelope(), want.envelope);
  EXPECT_EQ(shape.envelope_total(), want.envelope_total);
  EXPECT_EQ(shape.max_path_nodes(), want.max_path_nodes);
  EXPECT_EQ(shape.profiles_complete(), want.complete);
}

core::GraphTaskSpec from_layout(
    std::vector<std::size_t> resources,
    std::vector<std::pair<std::size_t, std::size_t>> edges) {
  core::GraphTaskSpec g;
  g.deadline = 1.0;
  for (std::size_t r : resources) {
    core::GraphNode node;
    node.resource = r;
    node.demand.compute = 1e-3;
    g.nodes.push_back(node);
  }
  for (const auto& [from, to] : edges) g.edges.push_back({from, to});
  return g;
}

TEST(DagQuotientTest, HandBuiltShapes) {
  core::TaskGraphShapeRegistry registry;
  util::Rng rng(11);
  std::vector<double> scratch;

  const auto* empty = registry.canonicalize(from_layout({}, {})).shape;
  EXPECT_EQ(empty->quotient_num_nodes(), 0u);
  EXPECT_TRUE(same_bits(empty->longest_path_weight({}, scratch), 0.0));

  const auto* single = registry.canonicalize(from_layout({2}, {})).shape;
  EXPECT_EQ(single->quotient_num_nodes(), 1u);
  check_quotient(rng, *single, 3);

  // A chain keeps every node: each prefix has a different length.
  const auto* chain =
      registry
          .canonicalize(from_layout({0, 0, 1, 0}, {{0, 1}, {1, 2}, {2, 3}}))
          .shape;
  EXPECT_EQ(chain->quotient_num_nodes(), 4u);
  EXPECT_EQ(chain->quotient_num_edges(), 3u);
  check_quotient(rng, *chain, 2);

  // A diamond whose two middle nodes share a resource folds them.
  const auto* diamond = registry.canonicalize(
      from_layout({0, 1, 1, 2}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}})).shape;
  EXPECT_EQ(diamond->quotient_num_nodes(), 3u);
  EXPECT_EQ(diamond->quotient_num_edges(), 2u);
  check_quotient(rng, *diamond, 3);
  // ...and one whose middle nodes differ keeps all four.
  const auto* split = registry.canonicalize(
      from_layout({0, 1, 2, 0}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}})).shape;
  EXPECT_EQ(split->quotient_num_nodes(), 4u);
  check_quotient(rng, *split, 3);

  // Independent sources on one resource collapse into one class.
  const auto* fan_in = registry.canonicalize(
      from_layout({0, 0, 0, 1}, {{0, 3}, {1, 3}, {2, 3}})).shape;
  EXPECT_EQ(fan_in->quotient_num_nodes(), 2u);
  check_quotient(rng, *fan_in, 2);

  // Duplicate edges and a relabeled presentation change nothing.
  const auto* dup = registry.canonicalize(
      from_layout({1, 0, 0}, {{1, 0}, {2, 0}, {1, 0}})).shape;
  EXPECT_EQ(dup->quotient_num_nodes(), 2u);
  EXPECT_EQ(dup->quotient_num_edges(), 1u);
  check_quotient(rng, *dup, 2);
}

TEST(DagQuotientTest, BenchmarkSizedShapes) {
  core::TaskGraphShapeRegistry registry;
  util::Rng rng(0x5eed0da6);
  for (const std::size_t n : {100, 1000, 10000}) {
    for (int k = 0; k < 2; ++k) {
      const auto* shape =
          registry.canonicalize(sparse_er_dag(rng, n, 8, 4.0)).shape;
      // The quotient is what makes the DP cheap on these shapes.
      EXPECT_LT(shape->quotient_num_nodes(), shape->num_nodes()) << n;
      check_quotient(rng, *shape, 8);
    }
  }
  for (const auto kind : {workload::RandomDagConfig::Kind::kLayered,
                          workload::RandomDagConfig::Kind::kErdosRenyi}) {
    workload::RandomDagConfig cfg;
    cfg.kind = kind;
    cfg.num_nodes = 600;
    cfg.num_resources = 6;
    cfg.edge_prob = 4.0 / 600.0;
    cfg.max_layers = 40;
    cfg.extra_edge_prob = 2.0 / 600.0;
    for (int k = 0; k < 3; ++k) {
      const auto raw = workload::random_dag(rng, cfg, 1, 1.0);
      check_quotient(rng, *registry.canonicalize(raw).shape, 6);
    }
  }
}

// 6 seeds x 500 DAGs: 3000 random shapes of 1-1500 nodes.
class ShapeDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeDifferentialTest, FlatEnumeratorAndQuotientMatchReferences) {
  util::Rng rng(GetParam() * 7919 + 3);
  core::TaskGraphShapeRegistry registry;
  std::size_t capped = 0;
  for (int i = 0; i < 500; ++i) {
    const core::GraphTaskSpec raw = random_shape(rng, 1500);
    const core::TaskGraphShape& shape = *registry.canonicalize(raw).shape;
    ASSERT_NO_FATAL_FAILURE(check_profiles(shape)) << "dag " << i;
    ASSERT_NO_FATAL_FAILURE(check_quotient(rng, shape, 12)) << "dag " << i;
    capped += shape.profiles_complete() ? 0 : 1;
  }
  // Both the complete and the capped enumerator paths ran.
  EXPECT_GT(capped, 20u);
  EXPECT_LT(capped, 480u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace frap
