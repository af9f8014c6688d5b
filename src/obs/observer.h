// Observer: the ownership umbrella for one traced universe.
//
// Owns N per-shard DecisionSinks (N = 1 for a plain AdmissionController),
// one extra service-level sink for the sharded service's global span events
// (fallback), and an optional StageObserver for pipeline-stage
// gauges. Wire-up pattern:
//
//     obs::Observer observer(1, cfg);                // or num_shards
//     controller.set_sink(&observer.sink(0));
//     runtime.set_stage_observer(&observer.stage_observer());
//
// Snapshot / trace methods here assume the producers are quiescent or that
// the caller holds the producers' locks (ShardedAdmissionService wraps this
// in obs_snapshot(), which locks every shard). Sinks are stable in memory
// for the Observer's lifetime (held by unique_ptr), so raw sink pointers
// handed to admitters never dangle before the Observer dies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/decision_sink.h"
#include "obs/stage_observer.h"

namespace frap::obs {

struct MetricsSnapshot {
  // Per-shard sinks first, service-level sink (shard == kServiceShard)
  // last.
  std::vector<SinkSnapshot> sinks;
  std::vector<StageSnapshot> stages;
};

class Observer {
 public:
  // `clock == nullptr` wires the real monotonic clock; tests pass a
  // ManualClock. `num_stages == 0` skips the stage observer.
  explicit Observer(std::size_t num_sinks, const SinkConfig& cfg = {},
                    const Clock* clock = nullptr, std::size_t num_stages = 0);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  std::size_t num_sinks() const { return sinks_.size(); }

  DecisionSink& sink(std::size_t k) { return *sinks_.at(k); }
  const DecisionSink& sink(std::size_t k) const { return *sinks_.at(k); }

  // The service-level sink for global span events (shard id
  // kServiceShard). Always present.
  DecisionSink& service_sink() { return *service_sink_; }
  const DecisionSink& service_sink() const { return *service_sink_; }

  bool has_stage_observer() const { return stage_observer_ != nullptr; }
  StageObserver& stage_observer() { return *stage_observer_; }

  // The Clock seam every sink stamps latencies through ("time_source", not
  // "clock": frap-lint R5 reserves the bare `clock(` spelling for the libc
  // wall-clock it bans).
  const Clock& time_source() const { return *clock_; }

  // Aggregates every sink (+ stages) into one copyable snapshot.
  MetricsSnapshot snapshot() const;

  // All ring events across every sink, merged and ordered by
  // (decided_at, shard, ticket) so interleaved shard traces read in
  // simulated-time order.
  std::vector<DecisionEvent> trace() const;

 private:
  const Clock* clock_;
  std::vector<std::unique_ptr<DecisionSink>> sinks_;
  std::unique_ptr<DecisionSink> service_sink_;
  std::unique_ptr<StageObserver> stage_observer_;
};

}  // namespace frap::obs
