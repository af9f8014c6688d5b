// dag_long_path: DAG admission in long-path mode (He et al., "Bounding the
// Response Time of DAG Tasks Using Long Paths") over interned shapes. One
// thread makes seeded draws from a fixed pool of Erdos-Renyi DAGs, eight
// each of 100, 1k and 10k nodes on 8 resources, and admits them through
// GraphAdmissionController; expiries run through the simulator. The arrival
// rate overloads the region so that about half the arrivals are admitted.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/admission.h"
#include "core/long_path_bound.h"
#include "core/synthetic_utilization.h"
#include "core/task_graph.h"
#include "core/task_graph_shape.h"
#include "harness.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

using namespace frap;

namespace {

constexpr std::size_t kResources = 8;
constexpr std::size_t kShapesPerSize = 8;
// The shape pool is the same for every seed; the seed draws the arrivals
// (shape, deadline, instant) from it. What one DAG costs to evaluate
// depends on its structure, and with a seeded pool the seed-to-seed spread
// of that cost swamped every change the workload is there to show.
constexpr std::uint64_t kPoolSeed = 0x5eed0da6;
constexpr std::size_t kSizes[] = {100, 1000, 10000};
constexpr Duration kCeiling = 1.0;       // deadline ceiling of every resource
constexpr Duration kDeadlineMin = 0.5;   // deadlines drawn from [0.5, 1]
constexpr double kArrivalRate = 50.0;    // arrivals per simulated second
constexpr std::size_t kArrivals = 16384;  // drawn once, replayed cyclically
constexpr std::size_t kFrame = 64;        // arrivals per frame
constexpr std::size_t kWarmupFrames = 16;  // ~20 s simulated
constexpr std::size_t kDigestFrames = 256;
constexpr std::size_t kSpansPerFrame = 1 + 4 * kFrame;
// Span tags of the traced run.
constexpr std::uint16_t kColdEvaluate = 0;
constexpr std::uint16_t kSmallAdmitted = 1;  // admitted, 100-node shape
constexpr std::uint16_t kOther = 2;

// Erdos-Renyi DAG: every pair i < j is an edge i -> j with probability
// 4 / N, so the edge count stays ~2N at every size; resources are uniform
// and computes uniform in [0.01, 0.03] / N, so every size carries about the
// same load per arrival. The pairs are walked with geometric skips, O(N +
// edges) rather than O(N^2), so that even 10k-node shapes are cheap to set
// up.
core::GraphTaskSpec erdos_renyi_dag(util::Rng& rng, std::size_t n) {
  core::GraphTaskSpec g;
  g.deadline = kCeiling;
  g.nodes.resize(n);
  const double scale = 1.0 / static_cast<double>(n);
  for (auto& node : g.nodes) {
    node.resource = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(kResources) - 1));
    node.demand.compute = rng.uniform(0.01 * scale, 0.03 * scale);
  }
  const double p = std::min(0.25, 4.0 * scale);
  const double log_q = std::log1p(-p);
  std::size_t i = 0;
  std::size_t j = 0;  // the pair (i, i + 1 + j)
  while (i + 1 < n) {
    const double u = 1.0 - rng.uniform01();  // (0, 1]
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

struct Arrival {
  std::uint32_t shape = 0;  // index into the pool
  Duration deadline = 0;
  Time at = 0;              // arrival instant within one pass of the stream
};

// Inputs drawn from the seed: interned shapes and the arrival stream.
struct DagInputs {
  explicit DagInputs(std::uint64_t seed) {
    util::Rng shape_rng(kPoolSeed);
    for (const std::size_t n : kSizes) {
      for (std::size_t k = 0; k < kShapesPerSize; ++k) {
        const auto raw = erdos_renyi_dag(shape_rng, n);
        const std::int64_t t0 = now_ns();
        pool.push_back(registry.canonicalize(raw));
        intern_ns += static_cast<double>(now_ns() - t0);
      }
    }
    intern_ns /= static_cast<double>(pool.size());
    util::Rng rng(seed);
    Time t = 0;
    arrivals.reserve(kArrivals);
    for (std::size_t i = 0; i < kArrivals; ++i) {
      t += rng.exponential(1.0 / kArrivalRate);
      arrivals.push_back(Arrival{
          static_cast<std::uint32_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1)),
          rng.uniform(kDeadlineMin, kCeiling), t});
    }
    period = t + 1.0 / kArrivalRate;
  }

  core::TaskGraphShapeRegistry registry;
  std::vector<core::GraphTaskSpec> pool;
  std::vector<Arrival> arrivals;
  Duration period = 0;   // simulated length of one pass
  double intern_ns = 0;  // canonicalize() per shape
};

core::LongPathEvaluator make_evaluator() {
  return core::LongPathEvaluator(std::vector<double>(kResources, kCeiling),
                                 {}, kDeadlineMin / kCeiling);
}

struct Dag {
  explicit Dag(const DagInputs& in)
      : inputs(in),
        specs(in.pool),
        tracker(sim, kResources),
        ctl(sim, tracker, make_evaluator()) {}

  // The spec and instant of stream arrival i; ids never repeat.
  core::GraphTaskSpec& spec_for(std::uint64_t i, Time& at) {
    const Arrival& a = inputs.arrivals[i % inputs.arrivals.size()];
    at = a.at + static_cast<double>(i / inputs.arrivals.size()) * inputs.period;
    core::GraphTaskSpec& spec = specs[a.shape];
    spec.id = i + 1;
    spec.deadline = a.deadline;
    return spec;
  }

  std::uint64_t frame(bool digest) {
    for (std::size_t k = 0; k < kFrame; ++k) {
      Time t = 0;
      core::GraphTaskSpec& spec = spec_for(next++, t);
      sim.run_until(t);
      const core::AdmissionDecision d = ctl.try_admit(spec, t);
      if (digest) prefix.add(d);
      admitted += d.admitted ? 1 : 0;
      nodes += spec.num_nodes();
    }
    decided += kFrame;
    return kFrame;
  }

  // evaluate() runs twice before try_admit(): the first call pays the
  // walk over a cold spec, as the untraced path does; the second, warm like
  // try_admit() itself, is the reference that try_admit()'s commit is
  // measured against. The commit is sized on the 100-node shapes only: it
  // does not depend on the graph, and on the large shapes it is lost in the
  // jitter of the evaluation walk.
  std::uint64_t traced_frame(SpanBuffer& spans, bool digest) {
    const std::uint32_t f = spans.open(Layer::kFrame);
    core::LongPathEvaluator& eval = *ctl.long_path_evaluator();
    for (std::size_t k = 0; k < kFrame; ++k) {
      const bool small =
          inputs.arrivals[next % inputs.arrivals.size()].shape < kShapesPerSize;
      Time t = 0;
      core::GraphTaskSpec& spec = spec_for(next++, t);
      std::uint32_t s = spans.open(Layer::kAdvance, f, spec.id);
      sim.run_until(t);
      spans.close(s);
      s = spans.open(Layer::kEvaluate, f, spec.id);
      const core::LongPathEvaluator::Eval ev = eval.evaluate(spec, tracker);
      spans.close(s, kColdEvaluate);
      const std::uint32_t warm = spans.open(Layer::kEvaluate, f, spec.id);
      (void)eval.evaluate(spec, tracker);
      spans.close(warm);
      s = spans.open(Layer::kTryAdmit, f, spec.id);
      const core::AdmissionDecision d = ctl.try_admit(spec, t);
      const std::uint16_t tag = d.admitted && small ? kSmallAdmitted : kOther;
      spans.close(s, tag);
      spans.set_tag(warm, tag);
      if (ev.admitted != d.admitted) ++mismatches;
      if (digest) prefix.add(d);
      admitted += d.admitted ? 1 : 0;
      nodes += spec.num_nodes();
    }
    decided += kFrame;
    spans.close(f);
    return kFrame;
  }

  void warm_up() {
    for (std::size_t i = 0; i < kWarmupFrames; ++i) frame(false);
    admitted = decided = nodes = 0;
  }

  void drain(Report& r, const char* what) {
    Time t = 0;
    spec_for(next, t);
    sim.run_until(t + kCeiling + 1.0);
    double u_max = 0;
    for (std::size_t j = 0; j < kResources; ++j) {
      u_max = std::max(u_max, tracker.utilization(j));
    }
    expect_drained(r, what, tracker.live_tasks(), u_max);
  }

  const DagInputs& inputs;
  std::vector<core::GraphTaskSpec> specs;  // working copies: id, deadline
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  core::GraphAdmissionController ctl;
  std::uint64_t next = 0;
  std::uint64_t admitted = 0;
  std::uint64_t decided = 0;
  std::uint64_t nodes = 0;
  std::uint64_t mismatches = 0;
  Digest prefix;
};

}  // namespace

Report run_dag_long_path(const Options& opt) {
  Report r;
  const DagInputs inputs(opt.seed);

  if (!opt.trace) {
    Dag dag(inputs);
    dag.warm_up();
    FrameSamples frames(static_cast<std::size_t>(opt.seconds * 20000) + 1024);
    std::uint64_t p_admitted = 0;
    const double setup_s = seconds_since_start();
    const LoopResult loop = closed_loop(
        opt.seconds, kDigestFrames, &frames, [&](std::size_t i) {
          const std::uint64_t n = dag.frame(i < kDigestFrames);
          if (i + 1 == kDigestFrames) p_admitted = dag.admitted;
          return n;
        });
    r.attempted = loop.decisions;
    r.digest = dag.prefix.hex();
    dag.drain(r, "tracker");
    add_end_to_end(r, loop.window, frames,
                   static_cast<double>(p_admitted) /
                       static_cast<double>(kDigestFrames * kFrame),
                   setup_s);
    return r;
  }

  declare_layer_metrics(r);
  std::string untraced_digest;
  double untraced_dps = 0;
  {
    Dag dag(inputs);
    dag.warm_up();
    const LoopResult loop = closed_loop(
        opt.seconds / 2, kDigestFrames, nullptr,
        [&](std::size_t i) { return dag.frame(i < kDigestFrames); });
    untraced_dps =
        static_cast<double>(loop.window.decisions) / loop.window.seconds;
    untraced_digest = dag.prefix.hex();
    r.attempted += loop.decisions;
    dag.drain(r, "tracker (untraced phase)");
  }

  Dag dag(inputs);
  dag.warm_up();
  SpanBuffer spans(std::size_t{1} << 16);
  const std::uint64_t events0 = dag.sim.events_executed();
  const std::uint64_t rebuilds0 = dag.tracker.lhs_cache_stats().rebuilds;
  const LoopResult loop = closed_loop(
      opt.seconds / 2, kDigestFrames, nullptr,
      [&](std::size_t i) { return dag.traced_frame(spans, i < kDigestFrames); },
      [&] {
        if (!spans.has_room(kSpansPerFrame)) spans.fold();
      });
  spans.fold();
  const auto decided = static_cast<double>(dag.decided);
  r.attempted += loop.decisions;
  r.digest = dag.prefix.hex();
  r.failed += dag.mismatches;
  if (dag.mismatches > 0) r.fail("evaluate() and try_admit() disagreed");
  if (r.digest != untraced_digest) {
    r.fail("traced decisions differ from untraced: " + r.digest + " vs " +
           untraced_digest);
    ++r.failed;
  }

  r.set("core.admit_share", static_cast<double>(dag.admitted) / decided);
  r.set("core.live_tasks", static_cast<double>(dag.tracker.live_tasks()));
  r.set("core.lhs_rebuilds",
        static_cast<double>(dag.tracker.lhs_cache_stats().rebuilds -
                            rebuilds0) *
            1e6 / decided);
  r.set("sim.advance_ns", mean_ns(spans.total(Layer::kAdvance)));
  r.set("sim.events_per_arrival",
        static_cast<double>(dag.sim.events_executed() - events0) / decided);
  r.set("sim.pending", static_cast<double>(dag.sim.pending_events()));
  r.set("dag.evaluate_ns",
        mean_ns(spans.total(Layer::kEvaluate, kColdEvaluate)));
  r.set("dag.try_admit_ns", mean_ns(spans.total(Layer::kTryAdmit)));
  r.set("dag.commit_ns",
        mean_ns(spans.total(Layer::kTryAdmit, kSmallAdmitted)) -
            mean_ns(spans.total(Layer::kEvaluate, kSmallAdmitted)));
  r.set("dag.nodes", static_cast<double>(dag.nodes) / decided);
  r.set("dag.intern_ns", inputs.intern_ns);
  add_trace_summary(r, spans,
                    static_cast<double>(loop.window.decisions) /
                        loop.window.seconds,
                    untraced_dps);
  if (!opt.span_out.empty() && !spans.write(opt.span_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", opt.span_out.c_str());
  }
  dag.drain(r, "tracker");
  return r;
}

}  // namespace perfbench
