// Multi-threaded observability stress, run under the TSan CI leg (the leg's
// ctest regex matches suite names containing "Obs").
//
// Two layers are exercised: the raw TraceRing's seqlock under concurrent
// multi-producer pushes with live snapshot readers (no torn events, exact
// conservation once producers quiesce), and a fully traced
// ShardedAdmissionService driven by 8 threads (per-shard sinks serialized by
// the shard mutexes, span events under the global lock) with the service's
// own conservation laws: admits + rejects == attempts, per-reason decision
// counters sum to the attempt count, and every ring obeys
// snapshot().size() == pushed() - dropped() - overwritten().
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/task.h"
#include "obs/clock.h"
#include "obs/decision_event.h"
#include "obs/decision_sink.h"
#include "obs/observer.h"
#include "obs/trace_ring.h"
#include "service/sharded_admission.h"
#include "util/math.h"
#include "util/rng.h"

namespace frap::obs {
namespace {

using core::AdmissionDecision;
using core::FeasibleRegion;
using core::TaskSpec;
using service::ShardedAdmissionConfig;
using service::ShardedAdmissionService;

// ---------------------------------------------------- raw ring stress --

// Producers encode (thread, sequence) into every payload field so a reader
// can verify each snapshotted event is internally consistent — a torn read
// (fields from two different writes) would break the relation.
DecisionEvent encoded_event(std::uint32_t thread_id, std::uint32_t seq) {
  const std::uint64_t token =
      (static_cast<std::uint64_t>(thread_id) << 32) | seq;
  DecisionEvent ev;
  ev.task_id = token;
  ev.arrival = static_cast<double>(token);
  ev.decided_at = static_cast<double>(token) + 0.25;
  ev.lhs_before = static_cast<double>(seq);
  ev.lhs_with_task = static_cast<double>(seq) + 0.5;
  ev.bound = static_cast<double>(thread_id);
  ev.admitted = (seq % 2) == 0;
  ev.reason = ev.admitted ? AdmissionDecision::Reason::kAdmitted
                          : AdmissionDecision::Reason::kRegionFull;
  ev.shard = static_cast<std::uint16_t>(thread_id);
  ev.touched = static_cast<std::uint16_t>(seq & 0xFFFF);
  return ev;
}

void expect_consistent(const DecisionEvent& ev) {
  const auto thread_id = static_cast<std::uint32_t>(ev.task_id >> 32);
  const auto seq = static_cast<std::uint32_t>(ev.task_id & 0xFFFFFFFF);
  EXPECT_DOUBLE_EQ(ev.arrival, static_cast<double>(ev.task_id));
  EXPECT_DOUBLE_EQ(ev.decided_at, static_cast<double>(ev.task_id) + 0.25);
  EXPECT_DOUBLE_EQ(ev.lhs_before, static_cast<double>(seq));
  EXPECT_DOUBLE_EQ(ev.lhs_with_task, static_cast<double>(seq) + 0.5);
  EXPECT_DOUBLE_EQ(ev.bound, static_cast<double>(thread_id));
  EXPECT_EQ(ev.admitted, (seq % 2) == 0);
  EXPECT_EQ(ev.shard, static_cast<std::uint16_t>(thread_id));
  EXPECT_EQ(ev.touched, static_cast<std::uint16_t>(seq & 0xFFFF));
}

TEST(ObsMtRingTest, ConcurrentProducersNeverPublishTornEvents) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kPerThread = 20000;
  TraceRing ring(1 << 10);  // small: constant wrap-around pressure

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Hammer snapshot() while producers are mid-flight; every event that
    // validates must be internally consistent.
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& ev : ring.snapshot()) expect_consistent(ev);
    }
  });

  std::vector<std::thread> producers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        ring.push(encoded_event(t, i));
      }
    });
  }
  for (auto& th : producers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Producers quiesced: conservation is exact.
  EXPECT_EQ(ring.pushed(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto events = ring.snapshot();
  EXPECT_EQ(events.size(),
            ring.pushed() - ring.dropped() - ring.overwritten());
  for (const auto& ev : events) expect_consistent(ev);
}

TEST(ObsMtRingTest, SerializedPushesWithConcurrentReaders) {
  // push_serialized's contract: ONE serialized writer, snapshot() from
  // anywhere. The single writer here stands in for a shard mutex.
  constexpr std::uint32_t kEvents = 150000;
  TraceRing ring(1 << 9);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& ev : ring.snapshot()) expect_consistent(ev);
      }
    });
  }

  for (std::uint32_t i = 0; i < kEvents; ++i) {
    ring.push_serialized(encoded_event(0, i));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(ring.dropped(), 0u);  // the serialized path never drops
  const auto events = ring.snapshot();
  EXPECT_EQ(events.size(),
            ring.pushed() - ring.dropped() - ring.overwritten());
  // The surviving window is the newest `capacity` tickets, in order.
  EXPECT_EQ(events.size(), ring.capacity());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, events[i - 1].ticket + 1);
  }
}

// ------------------------------------------- traced sharded service --

TaskSpec make_task(util::Rng& rng, std::uint64_t id, std::size_t stages) {
  TaskSpec spec;
  spec.id = id;
  spec.deadline = rng.uniform(0.5, 2.0);
  spec.stages.resize(stages);
  for (auto& s : spec.stages) {
    if (rng.bernoulli(0.6)) s.compute = rng.uniform(0.0, 0.1) * spec.deadline;
  }
  return spec;
}

TEST(ObsMtShardedTest, EightThreadsTracedConservationHolds) {
  constexpr std::size_t kStages = 4;
  constexpr std::size_t kThreads = 8;
  constexpr int kPerThread = 4000;

  ShardedAdmissionConfig cfg;
  cfg.num_shards = 4;
  ShardedAdmissionService svc(FeasibleRegion::deadline_monotonic(kStages),
                              cfg);

  ManualClock clock;
  SinkConfig sink_cfg;
  sink_cfg.ring_capacity = std::size_t{1} << 16;  // holds every decision
  sink_cfg.latency_sample_period = 32;
  svc.enable_tracing(sink_cfg, &clock);
  ASSERT_TRUE(svc.tracing_enabled());

  std::atomic<std::uint64_t> admits{0};
  std::atomic<std::uint64_t> rejects{0};
  std::atomic<bool> stop{false};

  // A concurrent observer thread reads live rings and advances the clock
  // while admissions run — ring reads are documented always-safe.
  std::thread watcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      clock.advance(50);
      for (std::size_t k = 0; k < svc.num_shards(); ++k) {
        const auto events = svc.observer().sink(k).ring().snapshot();
        for (const auto& ev : events) {
          // Shard-sink events must carry that shard's id and re-test to
          // their recorded outcome through the sanctioned predicate.
          EXPECT_EQ(ev.shard, static_cast<std::uint16_t>(k));
          EXPECT_EQ(ev.kind, SpanKind::kDecision);
          EXPECT_EQ(FeasibleRegion::admits_lhs(ev.lhs_with_task, ev.bound),
                    ev.admitted);
        }
      }
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&svc, &admits, &rejects, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      double now = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const auto id = static_cast<std::uint64_t>(t) * 1000000 +
                        static_cast<std::uint64_t>(i);
        now += rng.exponential(0.002);
        const auto d = svc.try_admit(make_task(rng, id, kStages), now);
        if (d.admitted) {
          admits.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejects.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true, std::memory_order_relaxed);
  watcher.join();

  constexpr std::uint64_t kAttempts =
      static_cast<std::uint64_t>(kThreads) * kPerThread;

  // Service-level conservation: every attempt is either an admit or a
  // reject, and the per-shard counters agree with the caller's tally.
  const auto stats = svc.stats();
  EXPECT_EQ(admits.load() + rejects.load(), kAttempts);
  EXPECT_EQ(stats.total_admits(), admits.load());
  EXPECT_EQ(stats.total_rejects(), rejects.load());
  EXPECT_EQ(stats.decisions, kAttempts);
  // The workload must exercise both outcomes for the tally to mean much.
  EXPECT_GT(admits.load(), 0u);
  EXPECT_GT(rejects.load(), 0u);

  // Observability conservation, read under the full lock set.
  const MetricsSnapshot snap = svc.obs_snapshot();
  ASSERT_EQ(snap.sinks.size(), svc.num_shards() + 1);  // + service sink

  std::uint64_t fb_admits = 0;
  std::uint64_t fb_rejects = 0;
  for (const auto& s : stats.shards) {
    fb_admits += s.fallback_admits;
    fb_rejects += s.fallback_rejects;
  }

  std::uint64_t traced_decisions = 0;
  std::uint64_t traced_admits = 0;
  for (std::size_t k = 0; k < svc.num_shards(); ++k) {
    const auto& s = snap.sinks[k];
    EXPECT_EQ(s.shard, static_cast<std::uint16_t>(k));
    for (std::size_t r = 0; r < kReasonCount; ++r) {
      traced_decisions += s.decisions_by_reason[r];
    }
    for (const auto reason : {AdmissionDecision::Reason::kAdmitted,
                              AdmissionDecision::Reason::kAtomicFastPath,
                              AdmissionDecision::Reason::kSlowPathFallback}) {
      traced_admits += s.decisions_by_reason[static_cast<std::size_t>(reason)];
    }
    // Ring conservation per shard, with producers quiescent.
    const auto& ring = svc.observer().sink(k).ring();
    EXPECT_EQ(ring.snapshot().size(),
              ring.pushed() - ring.dropped() - ring.overwritten());
    EXPECT_EQ(s.pushed, ring.pushed());
  }
  // Every attempt was traced by its home shard; a fallback ADMIT records a
  // second decision event on the admitting shard (the span on the service
  // sink carries the final kQuotaFallback reason), a fallback REJECT is
  // decided globally without a second controller call.
  EXPECT_EQ(traced_decisions, kAttempts + fb_admits);
  // Shard sinks record the pre-override reason, so every admission — atomic
  // fast path (kAtomicFastPath), exact hot path (kSlowPathFallback), or
  // fallback (recorded as kAdmitted by the admitting shard's controller
  // before the kQuotaFallback override) — appears as exactly one event.
  EXPECT_EQ(traced_admits, admits.load());

  // The service-level sink saw only spans: one kFallback per global-path
  // attempt.
  const auto& service_snap = snap.sinks.back();
  EXPECT_EQ(service_snap.shard, kServiceShard);
  for (std::size_t r = 0; r < kReasonCount; ++r) {
    EXPECT_EQ(service_snap.decisions_by_reason[r], 0u);
  }
  EXPECT_EQ(service_snap.span_events, fb_admits + fb_rejects);
  // Some fallback stole quota, so weights moved while other threads read
  // them on the lock-free path.
  bool weight_moved = false;
  for (const auto& s : stats.shards) {
    weight_moved = weight_moved || !util::almost_equal(s.weight, 0.25);
  }
  EXPECT_TRUE(weight_moved) << "no fallback steal ran";
  const auto& service_ring = svc.observer().service_sink().ring();
  EXPECT_EQ(service_ring.snapshot().size(),
            service_ring.pushed() - service_ring.dropped() -
                service_ring.overwritten());
  EXPECT_EQ(service_snap.span_events, service_ring.pushed());
  for (const auto& ev : service_ring.snapshot()) {
    EXPECT_EQ(ev.shard, kServiceShard);
    EXPECT_NE(ev.kind, SpanKind::kDecision);
  }

  // The merged trace is ordered by (decided_at, shard, ticket).
  const auto merged = svc.observer().trace();
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].decided_at, merged[i].decided_at);
  }
}

TEST(ObsMtShardedTest, ConcurrentObsSnapshotsStayCoherent) {
  constexpr std::size_t kStages = 3;
  ShardedAdmissionConfig cfg;
  cfg.num_shards = 2;
  ShardedAdmissionService svc(FeasibleRegion::deadline_monotonic(kStages),
                              cfg);
  ManualClock clock;
  svc.enable_tracing(SinkConfig{}, &clock);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    // obs_snapshot() takes every lock: counters and histograms it returns
    // must be mutually coherent even mid-run.
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = svc.obs_snapshot();
      for (const auto& s : snap.sinks) {
        std::uint64_t decisions = 0;
        for (std::size_t r = 0; r < kReasonCount; ++r) {
          decisions += s.decisions_by_reason[r];
        }
        // Each sink's ring saw exactly its decisions plus its spans.
        EXPECT_EQ(s.pushed, decisions + s.span_events);
        // Headroom samples can never exceed recorded decisions.
        EXPECT_LE(s.headroom.total(), decisions);
      }
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&svc, t] {
      util::Rng rng(7 + static_cast<std::uint64_t>(t));
      double now = 0;
      for (int i = 0; i < 3000; ++i) {
        const auto id = static_cast<std::uint64_t>(t) * 100000 +
                        static_cast<std::uint64_t>(i);
        now += rng.exponential(0.005);
        (void)svc.try_admit(make_task(rng, id, kStages), now);
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.decisions, 4u * 3000u);
}

}  // namespace
}  // namespace frap::obs
