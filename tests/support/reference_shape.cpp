#include "support/reference_shape.h"

#include <algorithm>

namespace frap::testing {

namespace {

// Dense multiplicity vector over touched-resource positions.
using Mvec = std::vector<std::uint32_t>;

std::uint64_t vec_sum(const Mvec& v) {
  std::uint64_t s = 0;
  for (std::uint32_t m : v) s += m;
  return s;
}

// a dominates b: a[i] >= b[i] everywhere (equal vectors dominate too; the
// caller dedupes first).
bool dominates(const Mvec& a, const Mvec& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

void fold_max(Mvec& into, const Mvec& from) {
  if (into.empty()) {
    into = from;
    return;
  }
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

// Pareto-prunes `set` in place (dedupe + dominance filter), then caps it at
// `cap` keeping the largest profiles by (sum, lexicographic). Dropped
// vectors fold into `envelope`; returns true when the cap dropped any.
bool prune_profiles(std::vector<Mvec>& set, std::size_t cap, Mvec& envelope) {
  std::sort(set.begin(), set.end(), [](const Mvec& a, const Mvec& b) {
    const std::uint64_t sa = vec_sum(a);
    const std::uint64_t sb = vec_sum(b);
    if (sa != sb) return sa > sb;
    return a > b;
  });
  set.erase(std::unique(set.begin(), set.end()), set.end());
  std::vector<Mvec> kept;
  kept.reserve(std::min(set.size(), cap + 1));
  for (Mvec& v : set) {
    bool dominated = false;
    for (const Mvec& k : kept) {
      if (dominates(k, v)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(std::move(v));
  }
  bool capped = false;
  if (kept.size() > cap) {
    for (std::size_t i = cap; i < kept.size(); ++i) {
      fold_max(envelope, kept[i]);
    }
    kept.resize(cap);
    capped = true;
  }
  set = std::move(kept);
  return capped;
}

}  // namespace

double reference_longest_path_weight(
    const core::TaskGraphShape& shape,
    std::span<const double> weight_by_resource) {
  const std::size_t n = shape.num_nodes();
  const auto resource = shape.node_resource();
  std::vector<double> dist(n, 0.0);
  double best = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const double val = dist[v] + weight_by_resource[resource[v]];
    best = std::max(best, val);
    for (std::uint32_t s : shape.successors(v)) {
      dist[s] = std::max(dist[s], val);
    }
  }
  return best;
}

ReferenceProfiles reference_profiles(const core::TaskGraphShape& shape) {
  using Registry = core::TaskGraphShapeRegistry;
  const std::size_t n = shape.num_nodes();
  const auto touched = shape.touched_resources();
  const std::size_t width = touched.size();
  auto local_of = [&](std::uint32_t r) {
    const auto it = std::lower_bound(touched.begin(), touched.end(), r);
    return static_cast<std::size_t>(it - touched.begin());
  };

  ReferenceProfiles out;
  std::vector<std::vector<Mvec>> paths(n);
  std::vector<Mvec> env(n);
  std::vector<Mvec> caps(n);
  std::vector<std::uint32_t> hops(n, 0);
  std::vector<std::uint32_t> uses_left(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    uses_left[v] = static_cast<std::uint32_t>(shape.successors(v).size());
  }
  std::vector<std::vector<std::uint32_t>> pred(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint32_t s : shape.successors(v)) {
      pred[s].push_back(static_cast<std::uint32_t>(v));
    }
  }

  bool complete = true;
  std::vector<Mvec> finals;
  Mvec final_env;
  Mvec final_caps(width, 0u);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t lv = local_of(shape.node_resource()[v]);
    std::vector<Mvec> cand;
    caps[v].assign(width, 0u);
    if (pred[v].empty()) {
      cand.emplace_back(width, 0u);
    } else {
      for (std::uint32_t u : pred[v]) {
        for (const Mvec& p : paths[u]) cand.push_back(p);
        if (!env[u].empty()) fold_max(env[v], env[u]);
        fold_max(caps[v], caps[u]);
        hops[v] = std::max(hops[v], hops[u]);
      }
    }
    for (Mvec& p : cand) ++p[lv];
    if (!env[v].empty()) ++env[v][lv];
    ++caps[v][lv];
    ++hops[v];
    if (prune_profiles(cand, Registry::kNodeProfileCap, env[v])) {
      complete = false;
    }
    paths[v] = std::move(cand);
    for (std::uint32_t u : pred[v]) {
      if (--uses_left[u] == 0) {
        paths[u].clear();
        caps[u].clear();
      }
    }
    if (shape.successors(v).empty()) {
      for (const Mvec& p : paths[v]) finals.push_back(p);
      if (!env[v].empty()) fold_max(final_env, env[v]);
      fold_max(final_caps, caps[v]);
      out.max_path_nodes = std::max(out.max_path_nodes, hops[v]);
    }
  }
  out.path_caps = std::move(final_caps);
  if (prune_profiles(finals, Registry::kFinalProfileCap, final_env)) {
    complete = false;
  }
  out.complete = complete;
  for (const Mvec& p : finals) {
    auto& entries = out.profiles.emplace_back();
    for (std::size_t i = 0; i < width; ++i) {
      if (p[i] > 0) entries.push_back({static_cast<std::uint32_t>(i), p[i]});
    }
  }
  if (!complete) {
    for (std::size_t i = 0; i < width; ++i) {
      if (final_env[i] > 0) {
        out.envelope.push_back({static_cast<std::uint32_t>(i), final_env[i]});
      }
    }
  }
  return out;
}

}  // namespace frap::testing
