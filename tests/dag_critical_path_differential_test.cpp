// Theorem 2's critical-path test as the ratio-1 weight mode of
// LongPathEvaluator, against the raw-graph evaluator it replaced
// (tests/support/reference_graph.h, docs/dag_bounds.md).
//
// Over >= 10k random DAGs (layered and Erdős–Rényi from workload::
// random_dag, plus Fig. 3 fork/joins), each at random utilization
// snapshots, at alpha = 1 and alpha < 1 and with beta empty, uniform and
// non-uniform:
//   * beta empty: the two tests are one test, so the verdicts are equal;
//   * beta set: the per-path test never rejects what the critical-path
//     test admits, and it admits strictly more;
//   * alpha = 1, beta empty: the exact DP value is the reference value bit
//     for bit, whenever the victim guard leaves every weight finite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/feasible_region.h"
#include "core/long_path_bound.h"
#include "core/stage_delay.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "support/reference_graph.h"
#include "util/rng.h"
#include "workload/random_dag.h"

namespace frap {
namespace {

constexpr std::size_t kResources = 5;

struct Config {
  double alpha;
  enum class Beta { kEmpty, kUniform, kNonUniform } beta;
  bool bitwise = false;  // alpha = 1 with beta empty: compare values too
};

std::vector<double> beta_of(Config::Beta kind, util::Rng& rng) {
  switch (kind) {
    case Config::Beta::kEmpty:
      return {};
    case Config::Beta::kUniform:
      return std::vector<double>(kResources, 0.04);
    case Config::Beta::kNonUniform: {
      std::vector<double> beta(kResources);
      for (double& b : beta) b = rng.uniform(0.0, 0.1);
      return beta;
    }
  }
  return {};
}

core::GraphTaskSpec fork_join(util::Rng& rng, std::uint64_t id) {
  core::GraphTaskSpec g;
  g.id = id;
  g.deadline = rng.uniform(0.5, 2.0);
  for (std::size_t v = 0; v < 4; ++v) {
    core::StageDemand d;
    d.compute = rng.uniform(1 * kMilli, 20 * kMilli);
    g.nodes.push_back(core::GraphNode{v, d});
  }
  g.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  return g;
}

core::GraphTaskSpec random_task(util::Rng& rng, std::uint64_t id) {
  if (rng.bernoulli(0.2)) return fork_join(rng, id);
  workload::RandomDagConfig cfg;
  cfg.kind = rng.bernoulli(0.5) ? workload::RandomDagConfig::Kind::kLayered
                                : workload::RandomDagConfig::Kind::kErdosRenyi;
  cfg.num_nodes = static_cast<std::size_t>(rng.uniform_int(1, 14));
  cfg.num_resources = kResources;
  return workload::random_dag(rng, cfg, id, rng.uniform(0.5, 2.0));
}

// A snapshot around the admission boundary: per-resource f-terms near
// alpha / (nodes on a long path), a few resources saturated.
std::vector<double> random_snapshot(util::Rng& rng, double alpha,
                                    std::size_t nodes) {
  std::vector<double> u(kResources);
  const double f_mean = alpha / static_cast<double>(std::max<std::size_t>(
                                    1, (nodes + 1) / 2));
  for (double& x : u) {
    x = rng.bernoulli(0.02)
            ? 1.0
            : core::stage_delay_factor_inverse(
                  std::min(0.99, f_mean * rng.uniform(0.2, 1.8)));
  }
  return u;
}

struct Tally {
  std::uint64_t dags = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t mismatches = 0;   // beta empty: verdicts differ
  std::uint64_t crit_only = 0;    // beta set: crit admits, ratio-1 rejects
  std::uint64_t ratio_only = 0;   // beta set: ratio-1 admits, crit rejects
  std::uint64_t admits = 0;       // reference admits
  std::uint64_t bit_checks = 0;   // alpha = 1, beta empty, finite weights
};

Tally sweep(std::uint64_t seed, std::uint64_t dags) {
  const Config configs[] = {
      {1.0, Config::Beta::kEmpty, true}, {1.0, Config::Beta::kUniform},
      {1.0, Config::Beta::kNonUniform}, {0.25, Config::Beta::kEmpty},
      {0.25, Config::Beta::kUniform},   {0.6, Config::Beta::kNonUniform},
  };
  util::Rng rng(seed);
  core::TaskGraphShapeRegistry registry;
  Tally tally;
  for (std::uint64_t i = 0; i < dags; ++i) {
    const core::GraphTaskSpec raw = random_task(rng, i + 1);
    const core::GraphTaskSpec canon = registry.canonicalize(raw);
    ++tally.dags;
    for (const Config& config : configs) {
      const std::vector<double> beta = beta_of(config.beta, rng);
      const testing::ReferenceGraphRegionEvaluator reference(config.alpha,
                                                             beta);
      auto ratio =
          core::LongPathEvaluator::ratio_one(kResources, config.alpha, beta);
      const auto u = random_snapshot(rng, config.alpha, raw.nodes.size());
      ++tally.evaluations;

      const bool crit = reference.admits(raw, u);
      const bool ratio_admit = core::FeasibleRegion::admits_lhs(
          ratio.lhs_from_snapshot(canon, u),
          core::LongPathEvaluator::kDelayBudget);
      // The tiered value and the exact DP agree on every verdict.
      EXPECT_EQ(ratio_admit, core::FeasibleRegion::admits_lhs(
                                 ratio.exact_lhs_from_snapshot(canon, u),
                                 core::LongPathEvaluator::kDelayBudget));
      tally.admits += crit ? 1 : 0;
      if (config.beta == Config::Beta::kEmpty) {
        tally.mismatches += crit != ratio_admit ? 1 : 0;
      } else {
        tally.crit_only += crit && !ratio_admit ? 1 : 0;
        tally.ratio_only += !crit && ratio_admit ? 1 : 0;
      }

      if (config.bitwise) {
        const double want = reference.lhs(raw, u);
        const double got = ratio.exact_lhs_from_snapshot(canon, u);
        if (std::isinf(got) && !std::isinf(want)) {
          // The victim guard saturated a weight: some f-term exceeds
          // alpha (1 - 0) = 1, so the critical path does too.
          EXPECT_GT(want, 1.0);
        } else {
          ++tally.bit_checks;
          EXPECT_EQ(got, want) << "dag " << i << " seed " << seed;
        }
      }
    }
  }
  return tally;
}

TEST(DagCriticalPathDifferentialTest, RatioOneModeMatchesTheRawGraphOracle) {
  Tally total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Tally t = sweep(seed, 2600);
    total.dags += t.dags;
    total.evaluations += t.evaluations;
    total.mismatches += t.mismatches;
    total.crit_only += t.crit_only;
    total.ratio_only += t.ratio_only;
    total.admits += t.admits;
    total.bit_checks += t.bit_checks;
  }
  EXPECT_GE(total.dags, 10000u);
  EXPECT_EQ(total.mismatches, 0u);
  EXPECT_EQ(total.crit_only, 0u);
  // Both verdicts occur, the per-path blocking charge admits more than the
  // split test, and most alpha = 1 values were compared bit for bit.
  EXPECT_GT(total.admits, total.evaluations / 10);
  EXPECT_LT(total.admits, total.evaluations - total.evaluations / 10);
  EXPECT_GT(total.ratio_only, 0u);
  EXPECT_GT(total.bit_checks, total.dags / 2);
}

}  // namespace
}  // namespace frap
