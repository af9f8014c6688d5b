// The observability layer must be PASSIVE: attaching a DecisionSink may
// never change an admission decision (the PR's acceptance criterion). The
// differential sweep drives two identical controllers — one traced, one not
// — through 12k randomized arrivals and demands bit-identical decisions;
// the trace itself must then reconstruct every decision: each event's
// (lhs_with_task, bound) pair re-tested through FeasibleRegion::admits_lhs
// yields the recorded outcome, and events match the AdmissionDecisions that
// try_admit returned to 1e-9.
// Also covers the TraceRing single-threaded contracts (conservation,
// overwrite, meta packing, push vs push_serialized equivalence) and the
// DecisionSink counters/histograms under a ManualClock.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "obs/clock.h"
#include "obs/decision_event.h"
#include "obs/decision_sink.h"
#include "obs/observer.h"
#include "obs/trace_ring.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace frap::obs {
namespace {

using core::AdmissionController;
using core::AdmissionDecision;
using core::BatchAdmissionController;
using core::FeasibleRegion;
using core::SyntheticUtilizationTracker;
using core::TaskSpec;

// ------------------------------------------------------------ TraceRing --

DecisionEvent sample_event(std::uint64_t task_id) {
  DecisionEvent ev;
  ev.task_id = task_id;
  ev.arrival = 1.25;
  ev.decided_at = 1.5;
  ev.lhs_before = 0.25;
  ev.lhs_with_task = 0.375;
  ev.bound = 0.5;
  ev.latency_nanos = 123;
  ev.reason = AdmissionDecision::Reason::kAdmitted;
  ev.kind = SpanKind::kDecision;
  ev.admitted = true;
  ev.shard = 3;
  ev.touched = 2;
  return ev;
}

TEST(ObsTraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(64).capacity(), 64u);
  EXPECT_EQ(TraceRing(65).capacity(), 128u);
}

TEST(ObsTraceRingTest, PushRoundTripsEveryField) {
  TraceRing ring(8);
  ring.push(sample_event(42));

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const DecisionEvent& ev = events[0];
  EXPECT_EQ(ev.ticket, 0u);
  EXPECT_EQ(ev.task_id, 42u);
  EXPECT_DOUBLE_EQ(ev.arrival, 1.25);
  EXPECT_DOUBLE_EQ(ev.decided_at, 1.5);
  EXPECT_DOUBLE_EQ(ev.lhs_before, 0.25);
  EXPECT_DOUBLE_EQ(ev.lhs_with_task, 0.375);
  EXPECT_DOUBLE_EQ(ev.bound, 0.5);
  EXPECT_EQ(ev.latency_nanos, 123u);
  EXPECT_EQ(ev.reason, AdmissionDecision::Reason::kAdmitted);
  EXPECT_EQ(ev.kind, SpanKind::kDecision);
  EXPECT_TRUE(ev.admitted);
  EXPECT_EQ(ev.shard, 3u);
  EXPECT_EQ(ev.touched, 2u);
}

TEST(ObsTraceRingTest, SerializedPushMatchesMpscPushExactly) {
  TraceRing a(16);
  TraceRing b(16);
  for (std::uint64_t i = 0; i < 40; ++i) {  // wraps both rings twice
    DecisionEvent ev = sample_event(i);
    ev.admitted = (i % 2) == 0;
    ev.reason = ev.admitted ? AdmissionDecision::Reason::kAdmitted
                            : AdmissionDecision::Reason::kRegionFull;
    ev.lhs_with_task = 0.01 * static_cast<double>(i);
    a.push(ev);
    b.push_serialized(ev);
  }
  EXPECT_EQ(a.pushed(), b.pushed());
  EXPECT_EQ(a.dropped(), 0u);
  EXPECT_EQ(b.dropped(), 0u);
  EXPECT_EQ(a.overwritten(), b.overwritten());

  const auto ea = a.snapshot();
  const auto eb = b.snapshot();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].ticket, eb[i].ticket);
    EXPECT_EQ(ea[i].task_id, eb[i].task_id);
    EXPECT_EQ(ea[i].admitted, eb[i].admitted);
    EXPECT_EQ(ea[i].reason, eb[i].reason);
    EXPECT_DOUBLE_EQ(ea[i].lhs_with_task, eb[i].lhs_with_task);
  }
}

TEST(ObsTraceRingTest, OverwriteKeepsNewestAndConservationHolds) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push_serialized(sample_event(i));

  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.overwritten(), 6u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(),
            ring.pushed() - ring.dropped() - ring.overwritten());
  // Oldest ticket first, newest `capacity` events survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, 6u + i);
    EXPECT_EQ(events[i].task_id, 6u + i);
  }
}

TEST(ObsTraceRingTest, MetaPackingSaturatesLatencyAt24Bits) {
  TraceRing ring(4);
  DecisionEvent ev = sample_event(1);
  ev.latency_nanos = kLatencySaturationNanos - 1;
  ring.push_serialized(ev);
  ev.latency_nanos = kLatencySaturationNanos;
  ring.push_serialized(ev);
  ev.latency_nanos = std::uint64_t{1} << 40;  // far past the field
  ring.push_serialized(ev);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].latency_nanos, kLatencySaturationNanos - 1);
  EXPECT_EQ(events[1].latency_nanos, kLatencySaturationNanos);
  EXPECT_EQ(events[2].latency_nanos, kLatencySaturationNanos);
}

TEST(ObsTraceRingTest, MetaPackingRoundTripsExtremeFieldValues) {
  TraceRing ring(8);
  DecisionEvent ev = sample_event(std::numeric_limits<std::uint64_t>::max());
  ev.reason = AdmissionDecision::Reason::kQuotaFallbackRejected;  // value 6
  ev.kind = SpanKind::kFallback;
  ev.admitted = false;
  ev.shard = kServiceShard;  // 0xFFFF
  ev.touched = 0xFFFF;
  ev.lhs_with_task = std::numeric_limits<double>::infinity();
  ring.push_serialized(ev);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].task_id, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(events[0].reason,
            AdmissionDecision::Reason::kQuotaFallbackRejected);
  EXPECT_EQ(events[0].kind, SpanKind::kFallback);
  EXPECT_FALSE(events[0].admitted);
  EXPECT_EQ(events[0].shard, kServiceShard);
  EXPECT_EQ(events[0].touched, 0xFFFFu);
  EXPECT_TRUE(std::isinf(events[0].lhs_with_task));
}

// --------------------------------------------------------------- clock --

TEST(ObsClockTest, ManualClockAdvancesAndSetsDeterministically) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now_nanos(), 100u);
  clock.advance(25);
  EXPECT_EQ(clock.now_nanos(), 125u);
  clock.set(7);
  EXPECT_EQ(clock.now_nanos(), 7u);
}

TEST(ObsClockTest, MonotonicClockNeverDecreases) {
  const Clock& clock = monotonic_clock();
  const std::uint64_t a = clock.now_nanos();
  const std::uint64_t b = clock.now_nanos();
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------- sink --

AdmissionDecision admitted_decision() {
  AdmissionDecision d;
  d.admitted = true;
  d.reason = AdmissionDecision::Reason::kAdmitted;
  d.lhs_before = 0.2;
  d.lhs_with_task = 0.3;
  d.bound = 0.5;
  d.arrival = 1.0;
  d.decided_at = 1.0;
  return d;
}

TEST(ObsSinkTest, LatencySamplingStampsEveryNthDecision) {
  ManualClock clock;
  SinkConfig cfg;
  cfg.latency_sample_period = 4;
  DecisionSink sink(0, cfg, clock);

  for (int i = 0; i < 8; ++i) {
    const std::uint64_t t0 = sink.begin_decision();
    clock.advance(10);
    sink.record(admitted_decision(), static_cast<std::uint64_t>(i), 1, t0);
  }

  const SinkSnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.decisions_by_reason[static_cast<std::size_t>(
                AdmissionDecision::Reason::kAdmitted)],
            8u);
  EXPECT_EQ(snap.pushed, 8u);
  // Period 4 over 8 decisions: exactly 2 latency samples, each 10 ns.
  EXPECT_EQ(snap.latency_nanos.total(), 2u);
  EXPECT_DOUBLE_EQ(snap.latency_nanos.sum(), 20.0);
  // Every decision lands in the headroom histogram.
  EXPECT_EQ(snap.headroom.total(), 8u);
  EXPECT_DOUBLE_EQ(snap.headroom.sum(), 8 * (0.5 - 0.3));

  // The trace carries the latency only on the sampled decisions.
  std::size_t stamped = 0;
  for (const auto& ev : sink.ring().snapshot()) {
    if (ev.latency_nanos != 0) ++stamped;
  }
  EXPECT_EQ(stamped, 2u);
}

TEST(ObsSinkTest, ZeroSamplePeriodNeverReadsTheClock) {
  ManualClock clock(1000);
  SinkConfig cfg;
  cfg.latency_sample_period = 0;
  DecisionSink sink(0, cfg, clock);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t t0 = sink.begin_decision();
    EXPECT_EQ(t0, 0u);
    sink.record(admitted_decision(), static_cast<std::uint64_t>(i), 1, t0);
  }
  EXPECT_EQ(sink.snapshot().latency_nanos.total(), 0u);
}

TEST(ObsSinkTest, SaturatedRejectSkipsHeadroomHistogram) {
  ManualClock clock;
  DecisionSink sink(0, SinkConfig{}, clock);

  AdmissionDecision d;
  d.admitted = false;
  d.reason = AdmissionDecision::Reason::kStageSaturated;
  d.lhs_before = std::numeric_limits<double>::infinity();
  d.lhs_with_task = std::numeric_limits<double>::infinity();
  d.bound = 0.5;
  sink.record(d, 1, 1, 0);

  const SinkSnapshot snap = sink.snapshot();
  // The infinite post-LHS must not masquerade as a zero-headroom sample.
  EXPECT_EQ(snap.headroom.total(), 0u);
  EXPECT_EQ(snap.decisions_by_reason[static_cast<std::size_t>(
                AdmissionDecision::Reason::kStageSaturated)],
            1u);
  EXPECT_EQ(snap.pushed, 1u);
}

TEST(ObsSinkTest, SpansCountSeparatelyFromDecisions) {
  ManualClock clock;
  DecisionSink sink(kServiceShard, SinkConfig{}, clock);
  sink.record_span(SpanKind::kFallback, admitted_decision(), 9, 1);
  sink.record_span(SpanKind::kFallback, AdmissionDecision{}, 0, 0);

  const SinkSnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.span_events, 2u);
  for (std::size_t r = 0; r < kReasonCount; ++r) {
    EXPECT_EQ(snap.decisions_by_reason[r], 0u) << "reason " << r;
  }
  const auto events = sink.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SpanKind::kFallback);
  EXPECT_EQ(events[1].kind, SpanKind::kFallback);
  EXPECT_EQ(events[0].shard, kServiceShard);
}

// ------------------------------------------------- differential sweep --

TaskSpec random_task(util::Rng& rng, std::uint64_t id, std::size_t stages) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = rng.uniform(0.5, 3.0);
  spec.stages.resize(stages);
  for (auto& s : spec.stages) {
    // ~half the stages untouched: exercises the touched-count piggyback.
    if (rng.bernoulli(0.5)) s.compute = rng.uniform(0.0, 0.12) * spec.deadline;
  }
  return spec;
}

// One harness = simulator + tracker + controller; the differential test
// drives two with identical inputs, tracing only one of them.
struct Harness {
  explicit Harness(std::size_t stages)
      : tracker(sim, stages),
        controller(sim, tracker, FeasibleRegion::deadline_monotonic(stages)) {}

  sim::Simulator sim;
  SyntheticUtilizationTracker tracker;
  AdmissionController controller;
};

TEST(ObsDifferentialTest, TracingNeverChangesADecisionOver12kArrivals) {
  constexpr std::size_t kStages = 5;
  constexpr int kArrivals = 12000;
  Harness traced(kStages);
  Harness plain(kStages);

  ManualClock clock;
  SinkConfig cfg;
  cfg.ring_capacity = std::size_t{1} << 15;  // deliberately wraps mid-sweep
  cfg.latency_sample_period = 16;
  Observer observer(1, cfg, &clock);
  traced.controller.set_sink(&observer.sink(0));

  std::vector<AdmissionDecision> returned;  // every decision, in order
  returned.reserve(kArrivals);

  util::Rng rng(20240805);
  std::uint64_t admitted = 0;
  std::unordered_map<std::uint64_t, std::uint16_t> expected_touched;
  for (int i = 1; i <= kArrivals; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const auto spec = random_task(rng, id, kStages);
    std::uint16_t touched = 0;
    for (const auto& s : spec.stages) {
      if (s.compute > 0) ++touched;
    }
    expected_touched.emplace(id, touched);

    const Time t = traced.sim.now() + rng.exponential(0.02);
    traced.sim.run_until(t);
    plain.sim.run_until(t);
    clock.advance(37);  // latency samples stay deterministic

    const auto dt = traced.controller.try_admit(spec, traced.sim.now());
    const auto dp = plain.controller.try_admit(spec, plain.sim.now());
    returned.push_back(dt);

    // Bit-identical: same code path, same arithmetic, tracing is passive.
    EXPECT_EQ(dt.admitted, dp.admitted) << "arrival " << i;
    EXPECT_EQ(dt.reason, dp.reason) << "arrival " << i;
    EXPECT_EQ(dt.lhs_before, dp.lhs_before) << "arrival " << i;
    EXPECT_EQ(dt.lhs_with_task, dp.lhs_with_task) << "arrival " << i;
    EXPECT_EQ(dt.bound, dp.bound) << "arrival " << i;
    if (dt.admitted) ++admitted;

    // Mutate BOTH trackers occasionally so expiries/departures interleave.
    if (dt.admitted && rng.bernoulli(0.3)) {
      const auto stage =
          static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
      traced.tracker.mark_departed(id, stage);
      plain.tracker.mark_departed(id, stage);
      traced.tracker.on_stage_idle(stage);
      plain.tracker.on_stage_idle(stage);
    }
    if (dt.admitted && rng.bernoulli(0.05)) {
      traced.tracker.remove_task(id);
      plain.tracker.remove_task(id);
    }
  }
  // The workload must exercise both outcomes.
  EXPECT_GT(admitted, 1000u);
  EXPECT_LT(admitted, static_cast<std::uint64_t>(kArrivals));
  EXPECT_EQ(traced.controller.attempts(), plain.controller.attempts());
  EXPECT_EQ(traced.controller.admitted(), plain.controller.admitted());

  // --- trace reconstruction -------------------------------------------
  const DecisionSink& sink = observer.sink(0);
  EXPECT_EQ(sink.ring().pushed(), static_cast<std::uint64_t>(kArrivals));
  EXPECT_EQ(sink.ring().dropped(), 0u);
  const auto events = sink.ring().snapshot();
  ASSERT_EQ(events.size(), sink.ring().pushed() - sink.ring().dropped() -
                               sink.ring().overwritten());
  ASSERT_EQ(returned.size(), static_cast<std::size_t>(kArrivals));

  for (const auto& ev : events) {
    // Replaying the recorded (lhs, bound) pair through the ONE sanctioned
    // predicate must reproduce the recorded outcome.
    EXPECT_EQ(FeasibleRegion::admits_lhs(ev.lhs_with_task, ev.bound),
              ev.admitted)
        << "ticket " << ev.ticket;
    EXPECT_EQ(ev.kind, SpanKind::kDecision);
    EXPECT_EQ(ev.shard, 0u);
    EXPECT_EQ(ev.touched, expected_touched.at(ev.task_id))
        << "task " << ev.task_id;

    // Each event matches the decision try_admit returned to 1e-9 (tickets
    // are assigned in decision order; task ids are the 1-based arrival
    // index).
    const auto& rec = returned[static_cast<std::size_t>(ev.ticket)];
    EXPECT_EQ(ev.task_id, ev.ticket + 1);
    EXPECT_EQ(rec.admitted, ev.admitted);
    EXPECT_EQ(rec.reason, ev.reason);
    EXPECT_NEAR(rec.arrival, ev.arrival, 1e-9);
    EXPECT_NEAR(rec.lhs_before, ev.lhs_before, 1e-9);
    if (std::isfinite(rec.lhs_with_task)) {
      EXPECT_NEAR(rec.lhs_with_task, ev.lhs_with_task, 1e-9);
    } else {
      EXPECT_TRUE(std::isinf(ev.lhs_with_task));
    }
    EXPECT_NEAR(rec.bound, ev.bound, 1e-9);
    EXPECT_NEAR(rec.decided_at, ev.decided_at, 1e-9);
  }
  const SinkSnapshot snap = observer.snapshot().sinks.at(0);
  // Period 16: every 16th decision was latency-sampled (the ManualClock
  // does not advance DURING a decision, so each sample measures 0 ns — the
  // histogram count is what proves the sampling cadence).
  EXPECT_EQ(snap.latency_nanos.total(),
            static_cast<std::uint64_t>(kArrivals) / 16);
  std::uint64_t by_reason_total = 0;
  for (std::size_t r = 0; r < kReasonCount; ++r) {
    by_reason_total += snap.decisions_by_reason[r];
  }
  EXPECT_EQ(by_reason_total, static_cast<std::uint64_t>(kArrivals));
  EXPECT_EQ(snap.decisions_by_reason[static_cast<std::size_t>(
                AdmissionDecision::Reason::kAdmitted)],
            admitted);
}

TEST(ObsDifferentialTest, TracedBatchMatchesTracedSequential) {
  constexpr std::size_t kStages = 4;
  Harness seq(kStages);
  Harness bat(kStages);
  ManualClock clock;
  SinkConfig cfg;
  cfg.ring_capacity = std::size_t{1} << 14;
  Observer seq_obs(1, cfg, &clock);
  Observer bat_obs(1, cfg, &clock);
  seq.controller.set_sink(&seq_obs.sink(0));
  bat.controller.set_sink(&bat_obs.sink(0));
  BatchAdmissionController batch(bat.controller);

  util::Rng rng(7);
  std::uint64_t id = 1;
  std::uint64_t total = 0;
  for (int burst = 0; burst < 100; ++burst) {
    std::vector<TaskSpec> specs;
    const int size = rng.uniform_int(1, 32);
    for (int i = 0; i < size; ++i) {
      specs.push_back(random_task(rng, id++, kStages));
    }
    total += specs.size();
    const Time t = seq.sim.now() + rng.exponential(0.05);
    seq.sim.run_until(t);
    bat.sim.run_until(t);

    const auto& decisions = batch.try_admit_burst(specs);
    ASSERT_EQ(decisions.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto d = seq.controller.try_admit(specs[i], seq.sim.now());
      EXPECT_EQ(decisions[i].admitted, d.admitted)
          << "burst " << burst << " index " << i;
      EXPECT_DOUBLE_EQ(decisions[i].lhs_with_task, d.lhs_with_task);
    }
  }
  // Both paths traced every attempt, event for event.
  EXPECT_EQ(seq_obs.sink(0).ring().pushed(), total);
  EXPECT_EQ(bat_obs.sink(0).ring().pushed(), total);
  const auto se = seq_obs.sink(0).ring().snapshot();
  const auto be = bat_obs.sink(0).ring().snapshot();
  ASSERT_EQ(se.size(), be.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    EXPECT_EQ(se[i].task_id, be[i].task_id);
    EXPECT_EQ(se[i].admitted, be[i].admitted);
    EXPECT_EQ(se[i].touched, be[i].touched);
    EXPECT_DOUBLE_EQ(se[i].lhs_with_task, be[i].lhs_with_task);
  }
}

TEST(ObsDifferentialTest, ObserverTraceMergesSinksInDecidedAtOrder) {
  ManualClock clock;
  Observer observer(2, SinkConfig{}, &clock);

  AdmissionDecision d = admitted_decision();
  d.decided_at = 2.0;
  observer.sink(0).record(d, 1, 1, 0);
  d.decided_at = 1.0;
  observer.sink(1).record(d, 2, 1, 0);
  d.decided_at = 3.0;
  observer.sink(1).record(d, 3, 1, 0);

  const auto merged = observer.trace();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].task_id, 2u);  // decided_at 1.0, shard 1
  EXPECT_EQ(merged[1].task_id, 1u);  // decided_at 2.0, shard 0
  EXPECT_EQ(merged[2].task_id, 3u);  // decided_at 3.0, shard 1
}

}  // namespace
}  // namespace frap::obs
