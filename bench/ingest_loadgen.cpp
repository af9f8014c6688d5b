// Open-loop ingest throughput: the zero-copy wire decoder against the
// admission fast path it feeds (ISSUE 10).
//
// The scenario is the production shape from docs/wire_format.md: producers
// pre-encode arrival frames (4096 records, 5 stages, sparse 2-stage
// demands, arrivals 100 us apart), consumers decode in place and drive the
// admission machinery. Stages:
//   * IngestDecodeOnly        — validated-cursor walk, every field loaded;
//                               the pure decoder ceiling.
//   * IngestDecodeAssemble    — + TaskSpec materialization through the
//                               IngestSession scratch (0 allocs steady
//                               state; pinned by alloc_steady_state_test).
//   * IngestSingleThreadFastPath — the PR-1 boundary-reject probe (~no
//                               commit), for continuity with
//                               BENCH_mt_admission.json.
//   * IngestSteadyAdmitBaseline — in-process steady-state admit + commit +
//                               expire churn: the production-relevant
//                               single-thread admission rate the decoder
//                               must outrun. THE RATIO DENOMINATOR.
//   * IngestDecodeReplay      — wire -> assemble -> controller, same churn:
//                               what ingest adds on top of the baseline.
//   * IngestDecodeAdmitBatch  — wire -> burst admit (SIMD batch f(U)).
//   * IngestShardedDecodeAdmit/threads:T — T independent open-loop lanes,
//                               each decoding its own pre-encoded frame
//                               into its home shard (ids are congruent to
//                               the lane index mod 8, so lanes never share
//                               a shard: the shard-parallel scaling claim).
//   * IngestE2eLatency        — per-record decode+assemble+admit latency
//                               percentiles (p50/p95/p99 ns) from
//                               metrics::Histogram.
//
// Committed floor (enforced here, exit 1): decode-only records/sec >= 10x
// the steady-state admit baseline. The ratio against the ~13 ns boundary
// probe is also reported (decode_over_probe_ratio) but NOT enforced — that
// probe does no commit and is not what a frame feeds in production; see
// docs/wire_format.md for the honest comparison.
// Writes BENCH_ingest.json at the repo root (override with
// FRAP_BENCH_JSON); a failed export or a missed floor exits nonzero.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/stage_delay.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "metrics/histogram.h"
#include "service/sharded_admission.h"
#include "sim/simulator.h"

namespace {

using namespace frap;

constexpr std::size_t kStages = 5;
constexpr std::size_t kShards = 8;
constexpr std::size_t kRecords = 4096;        // records per frame
constexpr Duration kSpacing = 1e-4;           // arrival spacing inside a frame
constexpr Duration kFrameSpan = kRecords * kSpacing;  // ~0.41 s
// Strictly shorter than the frame span: every task of one epoch has expired
// before the same wire ids arrive again next epoch (the tracker keys live
// records by id), keeping the steady population at deadline/spacing = 2000.
constexpr Duration kDeadline = 0.2;
// Tiny enough that even a lane confined to one 1/8-quota shard stays well
// inside the scaled region (2000 live x 1e-6/0.2 x 8 = 0.08 on stage 0):
// every arrival is admitted, so the churn includes the commit every time.
constexpr double kTinyCompute = 1e-6;
constexpr double kProbeContribution = 0.1;

// Deterministic sparse workload: record k touches stage 0 and stage
// 1 + (k % 4), kTinyCompute each. `id_stride`/`id_base` let the sharded
// lanes pin their records to one shard (id % kShards routes).
void fill_frame(ingest::WireEncoder& enc, Time base, std::uint64_t id_base,
                std::uint64_t id_stride) {
  enc.reset(base);
  core::TaskSpec spec;
  spec.deadline = kDeadline;
  spec.importance = 1.0;
  spec.stages.resize(kStages);
  for (std::size_t k = 0; k < kRecords; ++k) {
    for (auto& s : spec.stages) s.compute = 0;
    spec.stages[0].compute = kTinyCompute;
    spec.stages[1 + k % (kStages - 1)].compute = kTinyCompute;
    spec.id = id_base + k * id_stride;
    enc.add(base + static_cast<double>(k) * kSpacing, spec);
  }
}

core::TaskSpec contribution_task(std::uint64_t id,
                                 const std::vector<double>& c) {
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = 1.0;
  spec.stages.resize(c.size());
  for (std::size_t j = 0; j < c.size(); ++j) spec.stages[j].compute = c[j];
  return spec;
}

// --- decoder ceiling ----------------------------------------------------

void IngestDecodeOnly(benchmark::State& state) {
  ingest::WireEncoder enc(kStages);
  fill_frame(enc, 0.0, 1, 1);
  const ingest::WireView view = ingest::WireView::open(enc.frame());
  if (!view.valid()) std::abort();

  for (auto _ : state) {
    std::uint64_t ids = 0;
    double acc = 0;
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      ids += a.id();
      acc += a.arrival() + a.deadline() + a.importance();
      const std::uint16_t pairs = a.pair_count();
      for (std::uint16_t i = 0; i < pairs; ++i) {
        acc += a.demand(i);
        ids += a.stage(i);
      }
    }
    benchmark::DoNotOptimize(ids);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(IngestDecodeOnly);

void IngestDecodeAssemble(benchmark::State& state) {
  ingest::WireEncoder enc(kStages);
  fill_frame(enc, 0.0, 1, 1);
  const ingest::WireView view = ingest::WireView::open(enc.frame());
  if (!view.valid()) std::abort();
  ingest::IngestSession session(kStages);

  for (auto _ : state) {
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      const core::TaskSpec& spec = session.assemble(a);
      benchmark::DoNotOptimize(&spec);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(IngestDecodeAssemble);

// --- admission baselines (the rates ingest must outrun) -----------------

void IngestSingleThreadFastPath(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  const double cap = core::balanced_stage_bound(kStages);
  const auto fill =
      contribution_task(1, std::vector<double>(kStages, 0.94 * cap));
  if (!controller.try_admit(fill, 0.0).admitted) std::abort();

  std::vector<double> c(kStages, 0.0);
  c[0] = kProbeContribution;
  const auto probe = contribution_task(2, c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.try_admit(probe, 0.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(IngestSingleThreadFastPath);

// Steady-state churn: every arrival is admitted, commits into the tracker,
// and expires one deadline later (~10k live). This is the per-decision work
// a wire frame actually feeds — the committed >= 10x floor is against this.
void IngestSteadyAdmitBaseline(benchmark::State& state) {
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  core::TaskSpec spec;
  spec.deadline = kDeadline;
  spec.importance = 1.0;
  spec.stages.resize(kStages);
  spec.stages[0].compute = kTinyCompute;
  spec.stages[1].compute = kTinyCompute;
  Time t = 0;
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < 10000; ++i) {  // warm to steady population
    t += kSpacing;
    sim.run_until(t);
    spec.id = id++;
    benchmark::DoNotOptimize(controller.try_admit(spec, t));
  }
  for (auto _ : state) {
    t += kSpacing;
    sim.run_until(t);
    spec.id = id++;
    benchmark::DoNotOptimize(controller.try_admit(spec, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(IngestSteadyAdmitBaseline);

// --- wire-fed admission -------------------------------------------------

// Same churn, fed from the wire: one frame replayed per iteration at a
// fresh epoch (rebase), so arrivals keep their relative spacing and the
// population stays steady. Compare records/sec against the baseline above
// to read the decode + assemble overhead per admitted task.
void IngestDecodeReplay(benchmark::State& state) {
  ingest::WireEncoder enc(kStages);
  fill_frame(enc, 0.0, 1, 1);
  const ingest::WireView view = ingest::WireView::open(enc.frame());
  if (!view.valid()) std::abort();

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  ingest::IngestSession session(kStages);
  Time t = 0;
  for (std::size_t i = 0; i < 3; ++i) {  // warm to steady population
    const auto st = session.replay(view, controller, sim, nullptr, t);
    if (!st.ok()) std::abort();
    t += kFrameSpan;
  }
  for (auto _ : state) {
    const auto st = session.replay(view, controller, sim, nullptr, t);
    benchmark::DoNotOptimize(st.admitted);
    t += kFrameSpan;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(IngestDecodeReplay);

// Wire -> burst admission: the whole frame is decided as one burst through
// the SIMD batch f(U) path, then time advances one frame span so the
// population churns.
void IngestDecodeAdmitBatch(benchmark::State& state) {
  ingest::WireEncoder enc(kStages);
  fill_frame(enc, 0.0, 1, 1);
  const ingest::WireView view = ingest::WireView::open(enc.frame());
  if (!view.valid()) std::abort();

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  core::BatchAdmissionController batch(controller);
  ingest::IngestSession session(kStages);
  Time t = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    sim.run_until(t);
    const auto st = session.admit_burst(view, batch);
    if (!st.ok()) std::abort();
    t += kFrameSpan;
  }
  for (auto _ : state) {
    sim.run_until(t);
    const auto st = session.admit_burst(view, batch);
    benchmark::DoNotOptimize(st.admitted);
    t += kFrameSpan;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(IngestDecodeAdmitBatch);

// --- multi-threaded open-loop lanes -------------------------------------

// T lanes, each the full consumer role: decode its own pre-encoded frame
// (ids congruent to the lane index mod kShards, so every record routes to
// the lane's home shard and the per-shard clocks stay monotone) and admit
// through the sharded service at a per-lane epoch that advances one frame
// span per iteration. Real-time aggregate records/sec is the scaling claim;
// on few-core machines cpu_time is the honest per-lane signal.
//
// The lanes share one service, built by the Setup hook and dropped by the
// Teardown hook: the library runs both once per run outside the lanes, so
// the warm-up below never sees the service half-built or already gone.
std::unique_ptr<service::ShardedAdmissionService> sharded_svc;

void build_sharded_service(const benchmark::State& /*state*/) {
  sharded_svc = std::make_unique<service::ShardedAdmissionService>(
      core::FeasibleRegion::deadline_monotonic(kStages),
      service::ShardedAdmissionConfig{.num_shards = kShards,
                                      .enable_fallback = false});
}

void drop_sharded_service(const benchmark::State& /*state*/) {
  sharded_svc.reset();
}

void IngestShardedDecodeAdmit(benchmark::State& state) {
  service::ShardedAdmissionService& svc = *sharded_svc;
  const auto lane = static_cast<std::uint64_t>(state.thread_index());
  ingest::WireEncoder enc(kStages);  // producer role: pre-encode the lane
  fill_frame(enc, 0.0, lane, kShards);
  ingest::WireView view;
  {
    ingest::WireParse parse;
    view = ingest::WireView::open(enc.frame(), &parse);
    if (!parse.ok()) std::abort();
  }
  ingest::IngestSession session(kStages);
  Time t = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto st = session.admit(view, svc, nullptr, t);
    if (!st.ok()) std::abort();
    t += kFrameSpan;
  }
  for (auto _ : state) {
    const auto st = session.admit(view, svc, nullptr, t);
    benchmark::DoNotOptimize(st.admitted);
    t += kFrameSpan;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRecords));

  if (state.thread_index() == 0) {
    const auto s = svc.stats();
    state.counters["admits"] = static_cast<double>(s.total_admits());
    state.counters["rejects"] = static_cast<double>(s.total_rejects());
  }
}
BENCHMARK(IngestShardedDecodeAdmit)
    ->Setup(build_sharded_service)
    ->Teardown(drop_sharded_service)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// --- per-record end-to-end latency --------------------------------------

// Timestamps each record across decode + assemble + admit (single
// controller, steady churn) and reports the percentiles. 10 ns resolution,
// clamped at 100 us.
void IngestE2eLatency(benchmark::State& state) {
  ingest::WireEncoder enc(kStages);
  fill_frame(enc, 0.0, 1, 1);
  const ingest::WireView view = ingest::WireView::open(enc.frame());
  if (!view.valid()) std::abort();

  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker(sim, kStages);
  core::AdmissionController controller(
      sim, tracker, core::FeasibleRegion::deadline_monotonic(kStages));
  ingest::IngestSession session(kStages);
  metrics::Histogram hist(0.0, 1e5, 10000);
  Time t = 0;
  std::size_t records = 0;
  for (auto _ : state) {
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      const Time now = a.arrival() + t;
      const auto t0 = std::chrono::steady_clock::now();
      sim.run_until(now);
      const auto d = controller.try_admit(session.assemble(a), now);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(d);
      hist.add_finite(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      ++records;
    }
    t += kFrameSpan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["e2e_p50_ns"] = hist.quantile(0.50);
  state.counters["e2e_p95_ns"] = hist.quantile(0.95);
  state.counters["e2e_p99_ns"] = hist.quantile(0.99);
}
BENCHMARK(IngestE2eLatency)->Iterations(100);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  frap::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::map<std::string, double> summary;
  const auto rate = [&](const std::string& name) {
    return reporter.counter_of(name.c_str(), "items_per_second");
  };
  summary["decode_only_records_per_sec"] = rate("IngestDecodeOnly");
  summary["decode_assemble_records_per_sec"] = rate("IngestDecodeAssemble");
  summary["single_thread_fast_path_attempts_per_sec"] =
      rate("IngestSingleThreadFastPath");
  summary["steady_admit_attempts_per_sec"] = rate("IngestSteadyAdmitBaseline");
  summary["decode_replay_records_per_sec"] = rate("IngestDecodeReplay");
  summary["decode_admit_batch_records_per_sec"] =
      rate("IngestDecodeAdmitBatch");
  for (int t : {1, 2, 4, 8}) {
    summary["ingest_" + std::to_string(t) + "t_records_per_sec"] =
        rate("IngestShardedDecodeAdmit/real_time/threads:" +
             std::to_string(t));
  }
  summary["e2e_p50_ns"] = reporter.counter_of("IngestE2eLatency*", "e2e_p50_ns");
  summary["e2e_p95_ns"] = reporter.counter_of("IngestE2eLatency*", "e2e_p95_ns");
  summary["e2e_p99_ns"] = reporter.counter_of("IngestE2eLatency*", "e2e_p99_ns");

  const double decode = summary["decode_only_records_per_sec"];
  const double steady = summary["steady_admit_attempts_per_sec"];
  const double probe = summary["single_thread_fast_path_attempts_per_sec"];
  summary["decode_over_steady_admit_ratio"] =
      steady > 0 ? decode / steady : 0;
  summary["decode_over_probe_ratio"] = probe > 0 ? decode / probe : 0;

  if (!frap::benchjson::export_json("BENCH_ingest.json", reporter, summary)) {
    return 1;
  }
  // The floor compares two measured rates. A filtered run that skipped
  // either source (allowed only with FRAP_BENCH_JSON pointing away from
  // the repo root, e.g. CI's TSan smoke of the threaded variants) has
  // nothing to compare; every unfiltered run still enforces it.
  const bool floor_measured = decode > 0 && steady > 0;
  if (floor_measured && summary["decode_over_steady_admit_ratio"] < 10.0) {
    std::fprintf(stderr,
                 "FATAL: ingest floor missed: decode-only %.3g rec/s is only "
                 "%.2fx the steady admit baseline %.3g/s (need >= 10x)\n",
                 decode, summary["decode_over_steady_admit_ratio"], steady);
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
