// Differential test for the dense kept-profile kernel
// (core::kept_profile_max, docs/dag_bounds.md) against the sparse
// per-profile walk it replaced (testing::reference_kept_max over the
// reference enumerator's profiles). The two must agree bit for bit (memcmp
// on the double) for every nonnegative weight vector, +inf included:
//
//   * fan shapes with 1-20 sinks keep exactly 1-16 profiles, complete up
//     to 16 and capped beyond, where the dropped sinks' resources leave
//     all-zero columns;
//   * random layered and Erdős–Rényi shapes cover complete and capped
//     profile sets;
//   * the weights mix random values with exact zeros and +inf, so a lane
//     that skips a saturated column must add +0.0, not 0·inf = NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/long_path_bound.h"
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

// A source on resource 0 feeding `sinks` single-node sinks on resources
// 1..sinks: every source->sink path is its own incomparable profile, so the
// shape keeps min(sinks, kFinalProfileCap) of them.
core::GraphTaskSpec fan(std::size_t sinks) {
  core::GraphTaskSpec g;
  g.deadline = 1.0;
  g.nodes.resize(1 + sinks);
  for (std::size_t v = 0; v <= sinks; ++v) {
    g.nodes[v].resource = v;
    g.nodes[v].demand.compute = 1e-3;
  }
  for (std::size_t v = 1; v <= sinks; ++v) g.edges.push_back({0, v});
  return g;
}

// Weight vectors over `width` touched resources: random, random with
// zeros, random with one and with several +inf entries, all zero, all
// +inf, and powers of two, whose sums round differently per order.
std::vector<std::vector<double>> weight_cases(util::Rng& rng,
                                              std::size_t width) {
  std::vector<std::vector<double>> cases;
  auto random_weights = [&] {
    std::vector<double> w(width);
    for (double& x : w) x = rng.uniform(0.0, 2.0);
    return w;
  };
  for (int i = 0; i < 4; ++i) cases.push_back(random_weights());
  for (int i = 0; i < 3; ++i) {
    auto w = random_weights();
    for (double& x : w) {
      if (rng.uniform01() < 0.3) x = 0;
    }
    cases.push_back(w);
  }
  for (std::size_t t = 0; t < width; ++t) {
    auto w = random_weights();
    w[t] = kInf;
    cases.push_back(w);
  }
  for (int i = 0; i < 3; ++i) {
    auto w = random_weights();
    for (double& x : w) {
      const double u = rng.uniform01();
      if (u < 0.25) x = kInf;
      else if (u < 0.5) x = 0;
    }
    cases.push_back(w);
  }
  cases.emplace_back(width, 0.0);
  cases.emplace_back(width, kInf);
  std::vector<double> pow2(width);
  for (std::size_t t = 0; t < width; ++t) {
    pow2[t] = std::ldexp(1.0 + rng.uniform01(), -static_cast<int>(t % 60));
  }
  cases.push_back(pow2);
  return cases;
}

struct Coverage {
  std::vector<bool> profiles_seen =
      std::vector<bool>(core::TaskGraphShapeRegistry::kFinalProfileCap + 1);
  int complete = 0;
  int capped = 0;
  int zero_column = 0;
  int inf_skipped = 0;  // a kept lane skips a +inf column
};

// True when column t of the shape's kept lanes is all zero.
bool zero_column(const core::TaskGraphShape& shape, std::size_t t) {
  constexpr std::size_t lanes = core::TaskGraphShape::kProfileLanes;
  for (std::size_t p = 0; p < testing::kept_lanes(shape); ++p) {
    if (shape.profile_matrix()[t * lanes + p] != 0) return false;
  }
  return true;
}

void check_shape(util::Rng& rng, const core::TaskGraphShape& shape,
                 Coverage& cov) {
  const testing::ReferenceProfiles ref = testing::reference_profiles(shape);
  const std::size_t width = shape.touched_resources().size();
  constexpr std::size_t lanes = core::TaskGraphShape::kProfileLanes;
  const std::size_t kept = ref.profiles.size();
  ASSERT_EQ(testing::kept_lanes(shape), kept);
  cov.profiles_seen[kept] = true;
  ++(shape.profiles_complete() ? cov.complete : cov.capped);
  for (std::size_t t = 0; t < width; ++t) {
    if (zero_column(shape, t)) {
      ++cov.zero_column;
      break;
    }
  }
  for (const auto& w : weight_cases(rng, width)) {
    const double want = testing::reference_kept_max(ref, w);
    const double got = core::kept_profile_max(shape, w);
    ASSERT_FALSE(std::isnan(got));
    ASSERT_TRUE(same_bits(want, got))
        << want << " vs " << got << " over " << kept
        << " profiles, " << width << " columns";
    for (std::size_t t = 0; t < width; ++t) {
      if (!std::isinf(w[t])) continue;
      for (std::size_t p = 0; p < kept; ++p) {
        if (shape.profile_matrix()[t * lanes + p] == 0) ++cov.inf_skipped;
      }
    }
  }
}

TEST(DagProfileKernelTest, FanShapesKeepOneToSixteenProfiles) {
  util::Rng rng(2801);
  core::TaskGraphShapeRegistry registry;
  Coverage cov;
  for (std::size_t sinks = 1; sinks <= 20; ++sinks) {
    const auto* shape = registry.canonicalize(fan(sinks)).shape;
    const std::size_t cap = core::TaskGraphShapeRegistry::kFinalProfileCap;
    ASSERT_EQ(testing::kept_lanes(*shape), std::min(sinks, cap));
    ASSERT_EQ(shape->profiles_complete(), sinks <= cap);
    ASSERT_NO_FATAL_FAILURE(check_shape(rng, *shape, cov)) << sinks;
  }
  for (std::size_t k = 1; k <= 16; ++k) EXPECT_TRUE(cov.profiles_seen[k]) << k;
  EXPECT_EQ(cov.complete, 16);
  EXPECT_EQ(cov.capped, 4);
  EXPECT_EQ(cov.zero_column, 4);  // each capped fan drops 1-4 sinks
  EXPECT_GT(cov.inf_skipped, 0);
}

TEST(DagProfileKernelTest, RandomShapesMatchTheSparseWalk) {
  util::Rng rng(2802);
  core::TaskGraphShapeRegistry registry;
  Coverage cov;
  for (int i = 0; i < 600; ++i) {
    workload::RandomDagConfig cfg;
    cfg.kind = i % 2 == 0 ? workload::RandomDagConfig::Kind::kLayered
                          : workload::RandomDagConfig::Kind::kErdosRenyi;
    cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(1, 120));
    cfg.num_resources = static_cast<std::size_t>(rng.uniform_int(1, 10));
    cfg.max_layers = static_cast<std::size_t>(rng.uniform_int(2, 12));
    cfg.edge_prob = rng.uniform(0.02, 0.3);
    const auto spec = workload::random_dag(rng, cfg, i, 1.0);
    const auto* shape = registry.canonicalize(spec).shape;
    ASSERT_NO_FATAL_FAILURE(check_shape(rng, *shape, cov)) << "dag " << i;
  }
  for (std::size_t k = 1; k <= 16; ++k) EXPECT_TRUE(cov.profiles_seen[k]) << k;
  EXPECT_GT(cov.complete, 0);
  EXPECT_GT(cov.capped, 0);
  EXPECT_GT(cov.zero_column, 0);
  EXPECT_GT(cov.inf_skipped, 0);
}

}  // namespace
}  // namespace frap
