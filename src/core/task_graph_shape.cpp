#include "core/task_graph_shape.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <queue>

#include "util/check.h"

namespace frap::core {

namespace {

// splitmix64-style mixing; the same finalizer util::IdMap uses. The
// encoding hash only steers bucket placement — shape equality always
// compares the full encoding, so collisions cannot alias.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ mix(v));
}

std::uint64_t duration_bits(Duration d) {
  return std::bit_cast<std::uint64_t>(static_cast<double>(d));
}

std::uint64_t lock_word(int lock) { return static_cast<std::uint32_t>(lock); }

// Appends a node's critical-section layout as encoding words: the segment
// count, then (length, lock) per segment. A demand without explicit
// segments encodes as its one lock-free segment, the layout it runs with.
void encode_segments(const StageDemand& demand,
                     std::vector<std::uint64_t>& out) {
  const sched::Segment one{demand.compute, sched::kNoLock};
  const std::span<const sched::Segment> segments =
      demand.segments.empty() ? std::span<const sched::Segment>(&one, 1)
                              : std::span<const sched::Segment>(
                                    demand.segments);
  out.push_back(segments.size());
  for (const sched::Segment& seg : segments) {
    out.push_back(duration_bits(seg.length));
    out.push_back(lock_word(seg.lock));
  }
}

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
// `cap` keeping the largest profiles by (sum, lexicographic) — the dominant
// long paths. Dropped vectors fold into `envelope`; returns true when
// anything was dropped by the CAP (dominance drops are lossless).
bool prune_profiles(std::vector<Mvec>& set, std::size_t cap, Mvec& envelope) {
  // Largest-sum first; lexicographically larger first on ties, so the order
  // (and therefore the kept set) is independent of insertion order.
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
    // Only an earlier (>= sum) vector can dominate v.
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

double TaskGraphShape::longest_path_weight(
    std::span<const double> weight_by_resource,
    std::vector<double>& scratch_dist) const {
  const std::size_t n = num_nodes();
  scratch_dist.assign(n, 0.0);
  double best = 0;
  // Canonical order is topological: predecessors of v precede v, so
  // scratch_dist[v] already holds the max predecessor path weight.
  for (std::size_t v = 0; v < n; ++v) {
    FRAP_EXPECTS(node_resource_[v] < weight_by_resource.size());
    const double val = scratch_dist[v] + weight_by_resource[node_resource_[v]];
    best = std::max(best, val);
    for (std::uint32_t s : successors(v)) {
      scratch_dist[s] = std::max(scratch_dist[s], val);
    }
  }
  return best;
}

TaskGraphShapeRegistry::CanonicalForm TaskGraphShapeRegistry::canonical_form(
    const GraphTaskSpec& spec) {
  // n == 0 is allowed: the empty graph canonicalizes to a benign shape with
  // no touched resources and no profiles (its path maximum is 0). valid()
  // still rejects empty specs before they reach a runtime. An interned spec
  // has no layout of its own to canonicalize.
  FRAP_EXPECTS(spec.shape == nullptr);
  const std::size_t n = spec.nodes.size();
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::vector<std::uint32_t> indeg(n, 0);
  // The layout checks valid() makes: a canonical spec's valid() trusts them.
  for (const auto& node : spec.nodes) FRAP_EXPECTS(node.demand.valid());
  for (const auto& e : spec.edges) {
    FRAP_EXPECTS(e.from < n && e.to < n);
    succ[e.from].push_back(static_cast<std::uint32_t>(e.to));
    ++indeg[e.to];
  }

  // Canonical order: Kahn's algorithm, taking the lowest-index ready node
  // first. The order is topological, and it is the identity for a spec
  // whose every edge already runs from a lower to a higher index.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push(static_cast<std::uint32_t>(v));
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t v = ready.top();
    ready.pop();
    order.push_back(v);
    for (std::uint32_t s : succ[v]) {
      if (--indeg[s] == 0) ready.push(s);
    }
  }
  FRAP_EXPECTS(order.size() == n);  // acyclic, no self-loops

  CanonicalForm form;
  form.canon_of_original.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    form.canon_of_original[order[pos]] = static_cast<std::uint32_t>(pos);
  }

  form.encoding.reserve(2 + 3 * n + spec.edges.size());
  form.encoding.push_back(n);
  form.encoding.push_back(spec.edges.size());
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto& node = spec.nodes[order[pos]];
    form.encoding.push_back(node.resource);
    form.encoding.push_back(duration_bits(node.demand.compute));
    encode_segments(node.demand, form.encoding);
  }
  std::vector<std::uint64_t> edges;
  edges.reserve(spec.edges.size());
  for (const auto& e : spec.edges) {
    edges.push_back(
        (static_cast<std::uint64_t>(form.canon_of_original[e.from]) << 32) |
        form.canon_of_original[e.to]);
  }
  std::sort(edges.begin(), edges.end());
  // Last, so build_shape can read the sorted edges back from the tail.
  form.encoding.insert(form.encoding.end(), edges.begin(), edges.end());

  std::uint64_t h = 0x646167u;
  for (std::uint64_t w : form.encoding) h = combine(h, w);
  form.hash = h;
  return form;
}

std::unique_ptr<TaskGraphShape> TaskGraphShapeRegistry::build_shape(
    const GraphTaskSpec& spec, CanonicalForm form) {
  auto shape = std::unique_ptr<TaskGraphShape>(new TaskGraphShape());
  const std::size_t n = spec.nodes.size();
  shape->hash_ = form.hash;
  shape->encoding_ = std::move(form.encoding);

  std::vector<std::size_t> original_of(n);
  for (std::size_t v = 0; v < n; ++v) {
    original_of[form.canon_of_original[v]] = v;
  }
  shape->node_resource_.resize(n);
  shape->node_compute_.resize(n);
  shape->segment_offset_.push_back(0);
  for (std::size_t c = 0; c < n; ++c) {
    const GraphNode& node = spec.nodes[original_of[c]];
    shape->node_resource_[c] = static_cast<std::uint32_t>(node.resource);
    shape->node_compute_[c] = node.demand.compute;
    for (const sched::Segment& seg : node.demand.make_segments()) {
      shape->segments_.push_back(seg);
    }
    shape->segment_offset_.push_back(
        static_cast<std::uint32_t>(shape->segments_.size()));
  }

  // The encoding ends with the canonical edges, (from << 32 | to) sorted:
  // each node's successors form one run, in CSR order already.
  const auto edges =
      std::span<const std::uint64_t>(shape->encoding_).last(spec.edges.size());
  shape->indegree_.assign(n, 0);
  shape->succ_offset_.assign(n + 1, 0);
  shape->succ_.reserve(edges.size());
  for (std::uint64_t e : edges) {
    const auto from = static_cast<std::uint32_t>(e >> 32);
    const auto to = static_cast<std::uint32_t>(e & 0xffffffffu);
    FRAP_ASSERT(from < to);  // canonical order is topological
    shape->succ_.push_back(to);
    ++shape->succ_offset_[from + 1];
    ++shape->indegree_[to];
  }
  for (std::size_t v = 0; v < n; ++v) {
    shape->succ_offset_[v + 1] += shape->succ_offset_[v];
  }

  // Touched resources + per-resource compute sums (sorted by resource).
  std::vector<std::pair<std::uint32_t, Duration>> per_resource;
  for (std::size_t v = 0; v < n; ++v) {
    per_resource.emplace_back(shape->node_resource_[v],
                              shape->node_compute_[v]);
  }
  std::sort(per_resource.begin(), per_resource.end());
  for (const auto& [r, c] : per_resource) {
    if (!shape->touched_resources_.empty() &&
        shape->touched_resources_.back() == r) {
      shape->resource_compute_.back() += c;
    } else {
      shape->touched_resources_.push_back(r);
      shape->resource_compute_.push_back(c);
    }
  }

  enumerate_profiles(*shape);
  return shape;
}

void TaskGraphShapeRegistry::enumerate_profiles(TaskGraphShape& shape) {
  const std::size_t n = shape.num_nodes();
  const std::size_t width = shape.touched_resources_.size();
  // resource -> local position (touched_resources_ is sorted).
  auto local_of = [&](std::uint32_t r) {
    const auto it = std::lower_bound(shape.touched_resources_.begin(),
                                     shape.touched_resources_.end(), r);
    FRAP_ASSERT(it != shape.touched_resources_.end() && *it == r);
    return static_cast<std::size_t>(it - shape.touched_resources_.begin());
  };

  std::vector<std::vector<Mvec>> paths(n);   // Pareto sets per node
  std::vector<Mvec> env(n);                  // dropped-path envelope per node
  // Path caps per node over the paths ending there: most visits to each
  // resource, and most nodes. Exact (a componentwise max, no capping).
  std::vector<Mvec> caps(n);
  std::vector<std::uint32_t> hops(n, 0);
  std::vector<std::uint32_t> uses_left(n, 0);  // successors not yet consumed
  for (std::size_t v = 0; v < n; ++v) {
    uses_left[v] = static_cast<std::uint32_t>(shape.successors(v).size());
  }
  // Predecessors per node, derived from the CSR.
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
    const std::size_t lv = local_of(shape.node_resource_[v]);
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
    if (prune_profiles(cand, kNodeProfileCap, env[v])) complete = false;
    paths[v] = std::move(cand);
    for (std::uint32_t u : pred[v]) {
      if (--uses_left[u] == 0) {
        paths[u].clear();
        paths[u].shrink_to_fit();
        caps[u].clear();
        caps[u].shrink_to_fit();
      }
    }
    if (shape.successors(v).empty()) {  // sink: collect
      for (const Mvec& p : paths[v]) finals.push_back(p);
      if (!env[v].empty()) fold_max(final_env, env[v]);
      fold_max(final_caps, caps[v]);
      shape.max_path_nodes_ = std::max(shape.max_path_nodes_, hops[v]);
    }
  }
  shape.path_caps_ = std::move(final_caps);
  if (prune_profiles(finals, kFinalProfileCap, final_env)) complete = false;

  shape.profiles_complete_ = complete;
  shape.profile_offset_.push_back(0);
  for (const Mvec& p : finals) {
    for (std::size_t i = 0; i < width; ++i) {
      if (p[i] > 0) {
        shape.profile_entries_.push_back(
            {static_cast<std::uint32_t>(i), p[i]});
      }
    }
    shape.profile_offset_.push_back(
        static_cast<std::uint32_t>(shape.profile_entries_.size()));
  }
  if (!complete) {
    FRAP_ASSERT(!final_env.empty());
    for (std::size_t i = 0; i < width; ++i) {
      if (final_env[i] > 0) {
        shape.envelope_.push_back({static_cast<std::uint32_t>(i),
                                   final_env[i]});
      }
    }
  }
}

const TaskGraphShape* TaskGraphShapeRegistry::intern(
    const GraphTaskSpec& spec) {
  CanonicalForm form = canonical_form(spec);
  auto& bucket = by_hash_[form.hash];
  for (std::uint32_t idx : bucket) {
    if (shapes_[idx]->encoding_ == form.encoding) {
      ++hits_;
      return shapes_[idx].get();
    }
  }
  ++misses_;
  auto shape = build_shape(spec, std::move(form));
  shape->id_ = shapes_.size();
  bucket.push_back(static_cast<std::uint32_t>(shapes_.size()));
  shapes_.push_back(std::move(shape));
  return shapes_.back().get();
}

GraphTaskSpec TaskGraphShapeRegistry::canonicalize(const GraphTaskSpec& spec) {
  GraphTaskSpec out;
  out.id = spec.id;
  out.deadline = spec.deadline;
  out.importance = spec.importance;
  out.shape = intern(spec);
  return out;
}

}  // namespace frap::core
