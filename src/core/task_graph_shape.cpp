#include "core/task_graph_shape.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>

#include "util/check.h"

namespace frap::core {

namespace {

// splitmix64-style mixing; the same finalizer util::IdMap uses. The
// encoding hash only steers bucket placement — shape equality always
// compares the full encoding with the registered layout, so collisions
// cannot alias.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ mix(v));
}

// Profile rows are flat and fixed-width: word 0 holds the row's visit
// total, words 1..width its multiplicity per touched position. Comparing
// two rows word by word is therefore the (sum, lexicographic) order.
using Row = const std::uint32_t*;

// a before b: larger sum first, lexicographically larger first on ties, so
// the order (and therefore the kept set) is independent of insertion order.
bool row_before(Row a, Row b, std::size_t stride) {
  for (std::size_t i = 0; i < stride; ++i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return false;
}

// a dominates b: a visits every resource at least as often (equal rows
// dominate too, which is what drops duplicates).
bool dominates(Row a, Row b, std::size_t stride) {
  for (std::size_t i = 1; i < stride; ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

// Componentwise max of a row into an envelope row, visit total included:
// the envelope's word 0 is then the most nodes on any path it covers. The
// first fold copies.
void fold_max(std::uint32_t* envelope, bool& has_envelope, Row row,
              std::size_t stride) {
  for (std::size_t i = 0; i < stride; ++i) {
    envelope[i] = has_envelope ? std::max(envelope[i], row[i]) : row[i];
  }
  has_envelope = true;
}

// Pareto-prunes `count` rows at `rows`: orders them by row_before, drops
// every row an earlier kept row dominates, and caps the survivors at `cap`,
// folding the rest into the envelope. A dominance drop needs no fold: the
// row that dominates it is kept or folded, and has at least its visits and
// its total. `kept` receives the indices of the first min(cap, survivors)
// rows, in order. Returns true when the cap dropped a row.
bool prune_rows(const std::uint32_t* rows, std::size_t count,
                std::size_t stride, std::size_t cap, std::uint32_t* envelope,
                bool& has_envelope, std::vector<std::uint32_t>& order,
                std::vector<std::uint32_t>& kept) {
  order.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return row_before(rows + a * stride, rows + b * stride, stride);
  });
  kept.clear();
  for (std::uint32_t i : order) {
    const Row row = rows + i * stride;
    // Only an earlier (>= sum) row can dominate this one.
    bool dominated = false;
    for (std::uint32_t k : kept) {
      if (dominates(rows + k * stride, row, stride)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    // A row past the cap still joins `kept` while the filter runs, because
    // it can dominate later rows; it is folded away afterwards.
    kept.push_back(i);
  }
  if (kept.size() <= cap) return false;
  for (std::size_t i = cap; i < kept.size(); ++i) {
    fold_max(envelope, has_envelope, rows + kept[i] * stride, stride);
  }
  kept.resize(cap);
  return true;
}

// Interns (resource, sorted class list) keys to dense class ids, in order
// of first appearance: the key table of one quotient pass. Open addressing
// sized for `max_classes`, so it never rehashes.
class ClassTable {
 public:
  explicit ClassTable(std::size_t max_classes)
      : slots_(std::bit_ceil(2 * max_classes + 2), kEmpty) {}

  std::uint32_t intern(std::uint32_t resource,
                       std::span<const std::uint32_t> key) {
    std::uint64_t h = combine(0x71u, resource);
    for (std::uint32_t c : key) h = combine(h, c);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t c = slots_[i];
      if (c == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(resource_.size());
        hash_.push_back(h);
        resource_.push_back(resource);
        key_.insert(key_.end(), key.begin(), key.end());
        key_offset_.push_back(static_cast<std::uint32_t>(key_.size()));
        return slots_[i];
      }
      if (hash_[c] == h && resource_[c] == resource &&
          std::ranges::equal(this->key(c), key)) {
        return c;
      }
    }
  }

  std::size_t size() const { return resource_.size(); }
  std::uint32_t resource(std::size_t c) const { return resource_[c]; }
  std::span<const std::uint32_t> key(std::size_t c) const {
    return {key_.data() + key_offset_[c], key_offset_[c + 1] - key_offset_[c]};
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hash_;
  std::vector<std::uint32_t> resource_;
  std::vector<std::uint32_t> key_offset_{0};
  std::vector<std::uint32_t> key_;
};

// Sorted, duplicate-free copy of `ids` mapped through `class_of`.
void class_set(std::span<const std::uint32_t> ids,
               std::span<const std::uint32_t> class_of,
               std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::uint32_t v : ids) out.push_back(class_of[v]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

// frap:contract(hotpath) -- one pull pass over the quotient; the scratch
// only grows, so a warm call does not allocate.
// Aligned so that the pass's loops sit in the same fetch windows whatever
// the size of the code linked before it: a 16-byte shift of its start
// (deleting unrelated service code) raised dag_long_path's frame_p99_us,
// set by the frames that reach the DP, by ~20%.
[[gnu::aligned(64)]] double TaskGraphShape::longest_path_weight(
    std::span<const double> weight_by_resource,
    std::vector<double>& scratch_dist) const {
  // Every quotient resource is a touched resource.
  FRAP_EXPECTS(touched_resources_.empty() ||
               touched_resources_.back() < weight_by_resource.size());
  const std::size_t q = quotient_resource_.size();
  if (scratch_dist.size() < q) scratch_dist.resize(q);
  double* dist = scratch_dist.data();
  const std::uint32_t* pred = quotient_pred_.data();
  double best = 0;
  // Quotient order is topological, so every dist[p] read here is written.
  // The recurrence is the canonical graph's DP with each node's value
  // pulled instead of pushed: the max over 0 and the predecessors, plus the
  // node's weight. Two running maxima halve the max chain's latency; max is
  // exact and no dist is -0 (NaN loses every max), so the split changes no
  // bit.
  for (std::size_t v = 0; v < q; ++v) {
    double m0 = 0;
    double m1 = 0;
    std::uint32_t i = quotient_pred_offset_[v];
    const std::uint32_t end = quotient_pred_offset_[v + 1];
    for (; i + 1 < end; i += 2) {
      m0 = std::max(m0, dist[pred[i]]);
      m1 = std::max(m1, dist[pred[i + 1]]);
    }
    if (i < end) m0 = std::max(m0, dist[pred[i]]);
    const double m = std::max(m0, m1);
    const double val = m + weight_by_resource[quotient_resource_[v]];
    dist[v] = val;
    best = std::max(best, val);
  }
  return best;
}

bool TaskGraphShape::layout_equals(
    std::span<const std::uint64_t> encoding) const {
  // Walks the words canonical_form() would emit for this topology.
  std::size_t i = 0;
  auto take = [&](std::uint64_t want) {
    return i < encoding.size() && encoding[i++] == want;
  };
  const std::size_t n = num_nodes();
  if (!take(n) || !take(num_edges())) return false;
  for (std::size_t v = 0; v < n; ++v) {
    if (!take(node_resource_[v])) return false;
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint32_t s : successors(v)) {
      if (!take((static_cast<std::uint64_t>(v) << 32) | s)) return false;
    }
  }
  return i == encoding.size();
}

void TaskGraphShapeRegistry::canonical_form(const GraphTaskSpec& spec,
                                            CanonicalForm& form) {
  // n == 0 is allowed: the empty graph canonicalizes to a benign shape with
  // no touched resources and no profiles (its path maximum is 0). valid()
  // still rejects empty specs before they reach a runtime. An interned spec
  // has no layout of its own to canonicalize.
  FRAP_EXPECTS(spec.shape == nullptr);
  const std::size_t n = spec.nodes.size();
  // The layout checks a canonical spec's valid() trusts (edges in range and,
  // below, no cycle). Resources must fit the shape's 32-bit resource ids.
  for (const auto& node : spec.nodes) {
    FRAP_EXPECTS(node.demand.valid());
    FRAP_EXPECTS(node.resource <= 0xffffffffu);
  }
  // Successor CSR over the original ids, each node's run in edge order.
  form.succ_offset.assign(n + 1, 0);
  form.indegree.assign(n, 0);
  for (const auto& e : spec.edges) {
    FRAP_EXPECTS(e.from < n && e.to < n);
    ++form.succ_offset[e.from + 1];
    ++form.indegree[e.to];
  }
  for (std::size_t v = 0; v < n; ++v) {
    form.succ_offset[v + 1] += form.succ_offset[v];
  }
  form.succ.resize(spec.edges.size());
  form.fill.assign(form.succ_offset.begin(), form.succ_offset.end() - 1);
  for (const auto& e : spec.edges) {
    form.succ[form.fill[e.from]++] = static_cast<std::uint32_t>(e.to);
  }

  // Canonical order: Kahn's algorithm, taking the lowest-index ready node
  // first. The order is topological, and it is the identity for a spec
  // whose every edge already runs from a lower to a higher index.
  std::vector<std::uint32_t>& ready = form.ready;
  ready.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (form.indegree[v] == 0) ready.push_back(static_cast<std::uint32_t>(v));
  }
  std::vector<std::uint32_t>& order = form.order;
  order.clear();
  while (!ready.empty()) {  // ready ascends, so it is already a min-heap
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const std::uint32_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (std::uint32_t i = form.succ_offset[v]; i < form.succ_offset[v + 1];
         ++i) {
      if (--form.indegree[form.succ[i]] == 0) {
        ready.push_back(form.succ[i]);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  FRAP_EXPECTS(order.size() == n);  // acyclic, no self-loops

  form.canon_of_original.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    form.canon_of_original[order[pos]] = static_cast<std::uint32_t>(pos);
  }

  // Node count, edge count, one resource word per node, then the edges.
  std::vector<std::uint64_t>& encoding = form.encoding;
  encoding.clear();
  encoding.push_back(n);
  encoding.push_back(spec.edges.size());
  for (std::size_t pos = 0; pos < n; ++pos) {
    encoding.push_back(spec.nodes[order[pos]].resource);
  }
  // Last, so build_shape can read the sorted edges back from the tail.
  for (const auto& e : spec.edges) {
    encoding.push_back(
        (static_cast<std::uint64_t>(form.canon_of_original[e.from]) << 32) |
        form.canon_of_original[e.to]);
  }
  std::sort(encoding.end() - static_cast<std::ptrdiff_t>(spec.edges.size()),
            encoding.end());

  std::uint64_t h = 0x646167u;
  for (std::uint64_t w : encoding) h = combine(h, w);
  form.hash = h;
}

std::unique_ptr<TaskGraphShape> TaskGraphShapeRegistry::build_shape(
    const CanonicalForm& form) {
  auto shape = std::unique_ptr<TaskGraphShape>(new TaskGraphShape());
  const std::size_t n = form.order.size();
  const std::size_t num_edges = form.encoding[1];
  shape->hash_ = form.hash;
  const auto resources = std::span<const std::uint64_t>(form.encoding)
                             .subspan(2, n);
  shape->node_resource_.assign(resources.begin(), resources.end());

  // The encoding ends with the canonical edges, (from << 32 | to) sorted:
  // each node's successors form one run, in CSR order already.
  const auto edges =
      std::span<const std::uint64_t>(form.encoding).last(num_edges);
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

  shape->touched_resources_ = shape->node_resource_;
  std::sort(shape->touched_resources_.begin(), shape->touched_resources_.end());
  shape->touched_resources_.erase(
      std::unique(shape->touched_resources_.begin(),
                  shape->touched_resources_.end()),
      shape->touched_resources_.end());

  // Predecessor CSR; the sorted edge tail lists each node's predecessors
  // in ascending order.
  std::vector<std::uint32_t> pred_offset(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    pred_offset[v + 1] = pred_offset[v] + shape->indegree_[v];
  }
  std::vector<std::uint32_t> pred(edges.size());
  {
    std::vector<std::uint32_t> fill(pred_offset.begin(), pred_offset.end() - 1);
    for (std::uint64_t e : edges) {
      pred[fill[e & 0xffffffffu]++] = static_cast<std::uint32_t>(e >> 32);
    }
  }
  enumerate_profiles(*shape, pred_offset, pred);
  build_quotient(*shape, pred_offset, pred);
  return shape;
}

void TaskGraphShapeRegistry::enumerate_profiles(
    TaskGraphShape& shape, std::span<const std::uint32_t> pred_offset,
    std::span<const std::uint32_t> pred) {
  const std::size_t n = shape.num_nodes();
  const auto touched = std::span<const std::uint32_t>(shape.touched_resources_);
  const std::size_t width = touched.size();
  const std::size_t stride = 1 + width;  // row: visit total, multiplicities

  // Each live node owns one slab: up to kNodeProfileCap profile rows, then
  // its dropped-path envelope, one row wide. A slab returns to the free list
  // once every successor has consumed it.
  const std::size_t env_at = kNodeProfileCap * stride;
  const std::size_t slab_words = env_at + stride;
  std::vector<std::uint32_t> uses_left(n, 0);  // successors not yet consumed
  auto reset_uses = [&] {
    for (std::size_t v = 0; v < n; ++v) {
      uses_left[v] = static_cast<std::uint32_t>(shape.successors(v).size());
    }
  };
  // Size the pool for the most slabs live at once (a node takes its slab
  // before its predecessors release theirs), so it never moves.
  reset_uses();
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::size_t v = 0; v < n; ++v) {
    peak = std::max(peak, ++live);
    for (std::size_t i = pred_offset[v]; i < pred_offset[v + 1]; ++i) {
      if (--uses_left[pred[i]] == 0) --live;
    }
    if (shape.successors(v).empty()) --live;
  }
  reset_uses();
  std::vector<std::uint32_t> slabs;
  slabs.reserve(peak * slab_words);
  std::vector<std::uint32_t> free_slabs;
  std::vector<std::uint32_t> slab_of(n);
  std::vector<std::uint32_t> rows_of(n, 0);
  std::vector<std::uint32_t> hops(n, 0);
  std::vector<char> has_env(n, 0);

  bool complete = true;
  std::vector<std::uint32_t> cand;    // gathered rows of the current node
  std::vector<std::uint32_t> finals;  // kept rows of every sink
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> kept;
  std::vector<std::uint32_t> final_env(stride, 0u);
  bool has_final_env = false;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t lv = static_cast<std::size_t>(
        std::lower_bound(touched.begin(), touched.end(),
                         shape.node_resource_[v]) -
        touched.begin());
    FRAP_ASSERT(lv < width && touched[lv] == shape.node_resource_[v]);
    if (free_slabs.empty()) {
      free_slabs.push_back(
          static_cast<std::uint32_t>(slabs.size() / slab_words));
      slabs.resize(slabs.size() + slab_words);
    }
    slab_of[v] = free_slabs.back();
    free_slabs.pop_back();
    std::uint32_t* slab = slabs.data() + slab_of[v] * slab_words;
    std::uint32_t* env = slab + env_at;
    bool env_set = false;

    const auto preds = pred.subspan(pred_offset[v],
                                    pred_offset[v + 1] - pred_offset[v]);
    cand.clear();
    if (preds.empty()) cand.resize(stride, 0u);
    for (std::uint32_t u : preds) {
      const std::uint32_t* from = slabs.data() + slab_of[u] * slab_words;
      cand.insert(cand.end(), from, from + rows_of[u] * stride);
      if (has_env[u]) fold_max(env, env_set, from + env_at, stride);
      hops[v] = std::max(hops[v], hops[u]);
    }
    const std::size_t count = cand.size() / stride;
    for (std::size_t r = 0; r < count; ++r) {
      ++cand[r * stride];
      ++cand[r * stride + 1 + lv];
    }
    // The envelope extends like a row: one more node, on resource lv.
    if (env_set) {
      ++env[0];
      ++env[1 + lv];
    }
    ++hops[v];
    if (prune_rows(cand.data(), count, stride, kNodeProfileCap, env, env_set,
                   order, kept)) {
      complete = false;
    }
    for (std::size_t r = 0; r < kept.size(); ++r) {
      std::copy_n(cand.data() + kept[r] * stride, stride, slab + r * stride);
    }
    rows_of[v] = static_cast<std::uint32_t>(kept.size());
    has_env[v] = env_set ? 1 : 0;
    for (std::uint32_t u : preds) {
      if (--uses_left[u] == 0) free_slabs.push_back(slab_of[u]);
    }
    if (shape.successors(v).empty()) {  // sink: collect, then free
      finals.insert(finals.end(), slab, slab + rows_of[v] * stride);
      if (env_set) fold_max(final_env.data(), has_final_env, env, stride);
      shape.max_path_nodes_ = std::max(shape.max_path_nodes_, hops[v]);
      free_slabs.push_back(slab_of[v]);
    }
  }
  if (prune_rows(finals.data(), finals.size() / stride, stride,
                 kFinalProfileCap, final_env.data(), has_final_env, order,
                 kept)) {
    complete = false;
  }

  shape.profiles_complete_ = complete;
  constexpr std::size_t lanes = TaskGraphShape::kProfileLanes;
  shape.profile_matrix_.assign(width * lanes, 0.0);
  for (std::size_t p = 0; p < kept.size(); ++p) {
    const std::uint32_t* row = finals.data() + kept[p] * stride;
    for (std::size_t t = 0; t < width; ++t) {
      shape.profile_matrix_[t * lanes + p] = row[1 + t];
    }
  }
  if (!complete) {
    FRAP_ASSERT(has_final_env);
    shape.envelope_total_ = final_env[0];
    for (std::size_t i = 0; i < width; ++i) {
      if (final_env[1 + i] > 0) {
        shape.envelope_.push_back({static_cast<std::uint32_t>(i),
                                   final_env[1 + i]});
      }
    }
  }
}

// The quotient keeps the set of resource-label sequences of the shape's
// paths. Forward pass: nodes with the same resource and the same set of
// predecessor classes merge. Every member of a class then has a
// predecessor in each of the class's predecessor classes, so walking any
// quotient path backwards from any member of its last class retraces an
// original path with the same labels. The backward pass is the mirror
// image over successor classes. One round of each; a second removed
// nothing on random shapes.
void TaskGraphShapeRegistry::build_quotient(
    TaskGraphShape& shape, std::span<const std::uint32_t> pred_offset,
    std::span<const std::uint32_t> pred) {
  const std::size_t n = shape.num_nodes();
  std::vector<std::uint32_t> key;

  // Forward classes in canonical order: a class is created after all of
  // its predecessor classes, so class ids are topological.
  ClassTable fwd(n);
  std::vector<std::uint32_t> fwd_of(n);
  for (std::size_t v = 0; v < n; ++v) {
    class_set(pred.subspan(pred_offset[v], pred_offset[v + 1] - pred_offset[v]),
              fwd_of, key);
    fwd_of[v] = fwd.intern(shape.node_resource_[v], key);
  }

  // Successor CSR of the forward quotient (its predecessor lists are the
  // class keys).
  const std::size_t f = fwd.size();
  std::vector<std::uint32_t> succ_offset(f + 1, 0);
  for (std::size_t c = 0; c < f; ++c) {
    for (std::uint32_t p : fwd.key(c)) ++succ_offset[p + 1];
  }
  for (std::size_t c = 0; c < f; ++c) succ_offset[c + 1] += succ_offset[c];
  std::vector<std::uint32_t> succ(succ_offset[f]);
  {
    std::vector<std::uint32_t> fill(succ_offset.begin(), succ_offset.end() - 1);
    for (std::size_t c = 0; c < f; ++c) {
      for (std::uint32_t p : fwd.key(c)) {
        succ[fill[p]++] = static_cast<std::uint32_t>(c);
      }
    }
  }

  // Backward classes in reverse topological order: a class is created
  // after all of its successor classes, so q - 1 - id is topological.
  ClassTable bwd(f);
  std::vector<std::uint32_t> bwd_of(f);
  for (std::size_t c = f; c-- > 0;) {
    class_set(std::span<const std::uint32_t>(succ).subspan(
                  succ_offset[c], succ_offset[c + 1] - succ_offset[c]),
              bwd_of, key);
    bwd_of[c] = bwd.intern(fwd.resource(c), key);
  }

  const std::size_t q = bwd.size();
  auto final_of = [&](std::uint32_t c) {
    return static_cast<std::uint32_t>(q - 1 - bwd_of[c]);
  };
  shape.quotient_resource_.resize(q);
  for (std::size_t b = 0; b < q; ++b) {
    shape.quotient_resource_[q - 1 - b] = bwd.resource(b);
  }
  // Quotient edges (to << 32 | from), sorted and deduplicated: each
  // node's predecessors form one ascending run.
  std::vector<std::uint64_t> edges;
  edges.reserve(succ.size());
  for (std::size_t c = 0; c < f; ++c) {
    const std::uint64_t to = final_of(static_cast<std::uint32_t>(c));
    for (std::uint32_t p : fwd.key(c)) {
      edges.push_back((to << 32) | final_of(p));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  shape.quotient_pred_offset_.assign(q + 1, 0);
  shape.quotient_pred_.reserve(edges.size());
  for (std::uint64_t e : edges) {
    const auto to = static_cast<std::uint32_t>(e >> 32);
    const auto from = static_cast<std::uint32_t>(e & 0xffffffffu);
    FRAP_ASSERT(from < to);  // quotient order is topological
    shape.quotient_pred_.push_back(from);
    ++shape.quotient_pred_offset_[to + 1];
  }
  for (std::size_t v = 0; v < q; ++v) {
    shape.quotient_pred_offset_[v + 1] += shape.quotient_pred_offset_[v];
  }
}

const TaskGraphShape* TaskGraphShapeRegistry::intern(
    const CanonicalForm& form) {
  auto& bucket = by_hash_[form.hash];
  for (std::uint32_t idx : bucket) {
    if (shapes_[idx]->layout_equals(form.encoding)) {
      ++hits_;
      return shapes_[idx].get();
    }
  }
  ++misses_;
  auto shape = build_shape(form);
  shape->id_ = shapes_.size();
  bucket.push_back(static_cast<std::uint32_t>(shapes_.size()));
  shapes_.push_back(std::move(shape));
  return shapes_.back().get();
}

GraphTaskSpec TaskGraphShapeRegistry::canonicalize(const GraphTaskSpec& spec) {
  canonical_form(spec, form_);
  GraphTaskSpec out;
  out.id = spec.id;
  out.deadline = spec.deadline;
  out.importance = spec.importance;
  out.shape = intern(form_);

  // Each of the demands' vectors is sized once.
  const std::size_t n = spec.nodes.size();
  std::size_t num_segments = 0;
  for (const GraphNode& node : spec.nodes) {
    num_segments += std::max<std::size_t>(1, node.demand.segments.size());
  }
  auto demands = std::make_shared<GraphDemands>();
  demands->node_compute.resize(n);
  demands->segment_offset.reserve(n + 1);
  demands->segment_offset.push_back(0);
  demands->segments.reserve(num_segments);
  // Per-resource compute sums: the (resource, compute) pairs sorted, then
  // summed in ascending order, so the sums do not depend on the node
  // numbering.
  per_resource_.clear();
  for (std::size_t c = 0; c < n; ++c) {
    const GraphNode& node = spec.nodes[form_.order[c]];
    demands->node_compute[c] = node.demand.compute;
    node.demand.append_segments(demands->segments);
    demands->segment_offset.push_back(
        static_cast<std::uint32_t>(demands->segments.size()));
    per_resource_.emplace_back(static_cast<std::uint32_t>(node.resource),
                               node.demand.compute);
  }
  std::sort(per_resource_.begin(), per_resource_.end());
  const auto touched = out.shape->touched_resources();
  demands->resource_compute.assign(touched.size(), 0);
  std::size_t t = 0;
  for (const auto& [r, c] : per_resource_) {
    while (touched[t] != r) ++t;
    demands->resource_compute[t] += c;
  }
  out.demands = std::move(demands);
  return out;
}

}  // namespace frap::core
