// pipeline_runtime: the paper's Sec. 4 pipeline, driven over simulated
// time. Eight stages, Poisson release instants, exponential per-stage
// compute and input load 1.5. Each release instant carries a burst of 1-16
// tasks that each touch every stage; BatchAdmissionController decides the
// burst and PipelineRuntime executes the admitted tasks under
// deadline-monotonic priorities with idle reset. Every run checks the
// paper's guarantee: no admitted task misses its deadline.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "harness.h"
#include "pipeline/pipeline_runtime.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/pipeline_workload.h"

namespace perfbench {

using namespace frap;

namespace {

constexpr std::size_t kStages = 8;
constexpr Duration kMeanCompute = 1e-3;  // per stage
constexpr double kInputLoad = 1.5;
constexpr std::int64_t kBurstMin = 1;
constexpr std::int64_t kBurstMax = 16;
constexpr std::size_t kReleases = 4096;    // drawn once, replayed cyclically
constexpr std::size_t kFrame = 16;         // release bursts per frame
constexpr std::size_t kWarmupFrames = 40;  // ~3.6 s simulated: 3 deadlines
constexpr std::size_t kDigestFrames = 512;
// Upper bound on spans per frame: frame, then per burst an advance, the
// burst and one start per admitted task.
constexpr std::size_t kSpansPerFrame =
    1 + kFrame * (2 + static_cast<std::size_t>(kBurstMax));

struct Release {
  Time at = 0;              // within one pass of the stream
  std::uint32_t first = 0;  // index of the burst's first task
  std::uint32_t count = 0;
};

// Tasks and release instants drawn from the seed.
struct PipelineInputs {
  explicit PipelineInputs(std::uint64_t seed)
      : config(workload::PipelineWorkloadConfig::balanced(
            kStages, kMeanCompute, kInputLoad)) {
    workload::PipelineWorkloadGenerator gen(config, seed);
    util::Rng rng(seed ^ 0x5bd1e995ULL);
    const double mean_burst =
        static_cast<double>(kBurstMin + kBurstMax) / 2.0;
    const double release_rate = config.arrival_rate() / mean_burst;
    Time t = 0;
    releases.reserve(kReleases);
    tasks.reserve(kReleases * static_cast<std::size_t>(kBurstMax));
    for (std::size_t i = 0; i < kReleases; ++i) {
      t += rng.exponential(1.0 / release_rate);
      const auto n =
          static_cast<std::uint32_t>(rng.uniform_int(kBurstMin, kBurstMax));
      releases.push_back(
          Release{t, static_cast<std::uint32_t>(tasks.size()), n});
      for (std::uint32_t k = 0; k < n; ++k) tasks.push_back(gen.next_task());
    }
    period = t + 1.0 / release_rate;
  }

  workload::PipelineWorkloadConfig config;
  std::vector<core::TaskSpec> tasks;
  std::vector<Release> releases;
  Duration period = 0;  // simulated length of one pass
};

struct Pipeline {
  explicit Pipeline(const PipelineInputs& in)
      : inputs(in),
        tracker(sim, kStages),
        runtime(sim, kStages, &tracker),
        ctl(sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages)),
        batch(ctl) {
    runtime.set_on_task_complete(
        [this](const core::TaskSpec& spec, Duration response, bool missed) {
          response_over_deadline += response / spec.deadline;
          misses += missed ? 1 : 0;
        });
  }

  std::span<const core::TaskSpec> burst_for(std::uint64_t i, Time& at) const {
    const Release& rel = inputs.releases[i % inputs.releases.size()];
    at = rel.at +
         static_cast<double>(i / inputs.releases.size()) * inputs.period;
    return {inputs.tasks.data() + rel.first, rel.count};
  }

  std::uint64_t frame(bool digest) {
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < kFrame; ++b) {
      Time t = 0;
      const auto burst = burst_for(next++, t);
      sim.run_until(t);
      const auto& ds = batch.try_admit_burst(burst);
      for (std::size_t i = 0; i < burst.size(); ++i) {
        if (digest) prefix.add(ds[i]);
        if (!ds[i].admitted) continue;
        ++admitted;
        runtime.start_task(burst[i], t + burst[i].deadline);
      }
      n += burst.size();
    }
    decided += n;
    return n;
  }

  std::uint64_t traced_frame(SpanBuffer& spans, bool digest) {
    const std::uint32_t f = spans.open(Layer::kFrame);
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < kFrame; ++b) {
      Time t = 0;
      const auto burst = burst_for(next++, t);
      std::uint32_t s = spans.open(Layer::kAdvance, f, burst.front().id);
      sim.run_until(t);
      spans.close(s);
      s = spans.open(Layer::kBurst, f, burst.front().id);
      const auto& ds = batch.try_admit_burst(burst);
      spans.close(s, static_cast<std::uint16_t>(burst.size()));
      for (std::size_t i = 0; i < burst.size(); ++i) {
        if (digest) prefix.add(ds[i]);
        if (!ds[i].admitted) continue;
        ++admitted;
        s = spans.open(Layer::kStart, f, burst[i].id);
        runtime.start_task(burst[i], t + burst[i].deadline);
        spans.close(s);
      }
      n += burst.size();
    }
    decided += n;
    spans.close(f);
    return n;
  }

  void warm_up() {
    for (std::size_t i = 0; i < kWarmupFrames; ++i) frame(false);
    admitted = decided = 0;
  }

  // Runs the runtime past every deadline: every admitted task must have
  // completed, none late, and the tracker must be empty.
  void drain(Report& r, const char* what) {
    Time t = 0;
    burst_for(next, t);
    sim.run_until(t + inputs.config.deadline_max() + 1.0);
    double u_max = 0;
    for (std::size_t j = 0; j < kStages; ++j) {
      u_max = std::max(u_max, tracker.utilization(j));
    }
    expect_drained(r, what, tracker.live_tasks(), u_max);
    if (runtime.completed() != runtime.started()) {
      r.fail(std::string(what) + ": admitted tasks still in flight");
      r.failed += runtime.started() - runtime.completed();
    }
    if (misses > 0) {
      r.fail(std::string(what) + ": admitted tasks missed their deadline");
      r.failed += misses;
    }
  }

  const PipelineInputs& inputs;
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  pipeline::PipelineRuntime runtime;
  core::AdmissionController ctl;
  core::BatchAdmissionController batch;
  std::uint64_t next = 0;
  std::uint64_t admitted = 0;
  std::uint64_t decided = 0;
  std::uint64_t misses = 0;
  double response_over_deadline = 0;
  Digest prefix;
};

}  // namespace

Report run_pipeline_runtime(const Options& opt) {
  Report r;
  const PipelineInputs inputs(opt.seed);

  if (!opt.trace) {
    Pipeline p(inputs);
    p.warm_up();
    FrameSamples frames(static_cast<std::size_t>(opt.seconds * 100000) + 1024);
    std::uint64_t p_admitted = 0;
    std::uint64_t p_decided = 0;
    const double setup_s = seconds_since_start();
    const LoopResult loop = closed_loop(
        opt.seconds, kDigestFrames, &frames, [&](std::size_t i) {
          const std::uint64_t n = p.frame(i < kDigestFrames);
          if (i + 1 == kDigestFrames) {
            p_admitted = p.admitted;
            p_decided = p.decided;
          }
          return n;
        });
    r.attempted = loop.decisions;
    r.digest = p.prefix.hex();
    p.drain(r, "pipeline");
    add_end_to_end(r, loop.window, frames,
                   static_cast<double>(p_admitted) /
                       static_cast<double>(p_decided),
                   setup_s);
    return r;
  }

  declare_layer_metrics(r);
  std::string untraced_digest;
  double untraced_dps = 0;
  {
    Pipeline p(inputs);
    p.warm_up();
    const LoopResult loop = closed_loop(
        opt.seconds / 2, kDigestFrames, nullptr,
        [&](std::size_t i) { return p.frame(i < kDigestFrames); });
    untraced_dps =
        static_cast<double>(loop.window.decisions) / loop.window.seconds;
    untraced_digest = p.prefix.hex();
    r.attempted += loop.decisions;
    p.drain(r, "pipeline (untraced phase)");
  }

  Pipeline p(inputs);
  p.warm_up();
  SpanBuffer spans(std::size_t{1} << 16);
  const std::uint64_t events0 = p.sim.events_executed();
  const std::uint64_t started0 = p.runtime.started();
  const std::uint64_t completed0 = p.runtime.completed();
  const double response0 = p.response_over_deadline;
  const std::uint64_t rebuilds0 = p.tracker.lhs_cache_stats().rebuilds;
  const Time sim0 = p.sim.now();
  const LoopResult loop = closed_loop(
      opt.seconds / 2, kDigestFrames, nullptr,
      [&](std::size_t i) { return p.traced_frame(spans, i < kDigestFrames); },
      [&] {
        if (!spans.has_room(kSpansPerFrame)) spans.fold();
      });
  spans.fold();
  const Time sim1 = p.sim.now();
  const auto decided = static_cast<double>(p.decided);
  r.attempted += loop.decisions;
  r.digest = p.prefix.hex();
  if (r.digest != untraced_digest) {
    r.fail("traced decisions differ from untraced: " + r.digest + " vs " +
           untraced_digest);
    ++r.failed;
  }

  const LayerTotals& burst = spans.total(Layer::kBurst);
  r.set("core.burst_ns", decided > 0 ? burst.dur_ns / decided : 0.0);
  r.set("core.admit_share", static_cast<double>(p.admitted) / decided);
  r.set("core.live_tasks", static_cast<double>(p.tracker.live_tasks()));
  r.set("core.lhs_rebuilds",
        static_cast<double>(p.tracker.lhs_cache_stats().rebuilds - rebuilds0) *
            1e6 / decided);
  r.set("sim.events_per_arrival",
        static_cast<double>(p.sim.events_executed() - events0) / decided);
  r.set("sim.pending", static_cast<double>(p.sim.pending_events()));
  r.set("runtime.start_ns", mean_ns(spans.total(Layer::kStart)));
  r.set("runtime.advance_ns", mean_ns(spans.total(Layer::kAdvance)));
  const auto started = static_cast<double>(p.runtime.started() - started0);
  r.set("runtime.events_per_task",
        started > 0
            ? static_cast<double>(p.sim.events_executed() - events0) / started
            : 0.0);
  const auto completed =
      static_cast<double>(p.runtime.completed() - completed0);
  r.set("runtime.response_over_deadline",
        completed > 0 ? (p.response_over_deadline - response0) / completed
                      : 0.0);
  std::vector<double> util(kStages);
  p.runtime.stage_utilizations(sim0, sim1, util);
  double mean_util = 0;
  for (const double u : util) mean_util += u / static_cast<double>(kStages);
  r.set("runtime.stage_util", mean_util);
  add_trace_summary(r, spans,
                    static_cast<double>(loop.window.decisions) /
                        loop.window.seconds,
                    untraced_dps);
  if (!opt.span_out.empty() && !spans.write(opt.span_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", opt.span_out.c_str());
  }
  p.drain(r, "pipeline");
  return r;
}

}  // namespace perfbench
