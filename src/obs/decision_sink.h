// Per-shard decision sink: ring + latency/headroom histograms + counters.
//
// One DecisionSink belongs to one admission controller (or one shard of the
// sharded service) and is serialized by whatever serializes that
// controller — the shard mutex, or plain single-threaded use. Only the
// embedded TraceRing is lock-free; the histograms and per-reason counters
// are deliberately plain so the hot path stays a handful of increments. Cross-thread readers must
// go through Observer::snapshot() (which takes the owning locks), never
// poke a live sink directly.
//
// Latency sampling: reading even a vDSO monotonic clock costs ~20-25 ns,
// which would dominate the ~30 ns admission fast path if paid per decision.
// begin_decision() therefore stamps only every latency_sample_period-th
// decision; unsampled decisions carry latency_nanos == 0 in the trace and
// are absent from the latency histogram (docs/observability.md).
#pragma once

#include <cmath>
#include <cstdint>

#include "core/admission_decision.h"
#include "metrics/histogram.h"
#include "obs/clock.h"
#include "obs/trace_ring.h"

namespace frap::obs {

// Number of core::AdmissionDecision::Reason values (indexable 0..N-1).
// NOTE: the trace ring packs the reason into 4 bits (obs/trace_ring.h), so
// this may grow to at most 16 before the packing needs another word.
inline constexpr std::size_t kReasonCount = 9;

struct SinkConfig {
  std::size_t ring_capacity = std::size_t{1} << 16;

  // Stamp the clock on every Nth decision; 0 disables latency sampling
  // entirely (no clock reads on the hot path at all).
  std::uint32_t latency_sample_period = 64;

  // Decision-latency histogram range, nanoseconds.
  double latency_lo_nanos = 0.0;
  double latency_hi_nanos = 4096.0;
  std::size_t latency_buckets = 64;

  // LHS-headroom histogram range: bound minus the post-decision LHS.
  double headroom_lo = 0.0;
  double headroom_hi = 1.0;
  std::size_t headroom_buckets = 50;
};

struct SinkSnapshot {
  std::uint16_t shard = 0;
  // Decisions by Reason (index == static_cast<size_t>(reason)); spans are
  // NOT counted here — they live in span_events.
  std::uint64_t decisions_by_reason[kReasonCount] = {};
  std::uint64_t span_events = 0;
  // Ring conservation counters.
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t overwritten = 0;
  metrics::Histogram latency_nanos;
  metrics::Histogram headroom;
};

class DecisionSink {
 public:
  DecisionSink(std::uint16_t shard, const SinkConfig& cfg, const Clock& clock);

  DecisionSink(const DecisionSink&) = delete;
  DecisionSink& operator=(const DecisionSink&) = delete;

  std::uint16_t shard() const { return shard_; }

  // Call at the top of try_admit. Returns the clock stamp when this
  // decision is latency-sampled, 0 otherwise (pass the value to record()).
  // Inline (with record below) so the per-decision cost flattens into a few
  // increments plus direct slot stores inside the caller.
  // frap:contract(hotpath)
  [[nodiscard]] std::uint64_t begin_decision() {
    if (sample_period_ == 0) return 0;
    if (--sample_countdown_ != 0) return 0;
    sample_countdown_ = sample_period_;
    return clock_->now_nanos();
  }

  // Record one admission decision. t0_nanos is begin_decision()'s return.
  // frap:contract(hotpath)
  void record(const core::AdmissionDecision& d, std::uint64_t task_id,
              std::uint16_t touched, std::uint64_t t0_nanos) {
    ++decisions_by_reason_[static_cast<std::size_t>(d.reason)];

    std::uint64_t latency = 0;
    if (t0_nanos != 0) {
      const std::uint64_t t1 = clock_->now_nanos();
      latency = t1 >= t0_nanos ? t1 - t0_nanos : 0;
      latency_nanos_.add_finite(static_cast<double>(latency));
    }

    // Headroom of the state the decision LEFT behind: an admit moved the LHS
    // to lhs_with_task, a reject left it at lhs_before. Stage-saturated
    // rejects carry lhs_with_task == +inf, which would otherwise clamp into
    // the bottom bucket and masquerade as zero headroom.
    // bound is finite by FeasibleRegion's invariants, so the difference of
    // two finite values is finite and the histogram's classification
    // branches can be skipped.
    const double post_lhs = d.admitted ? d.lhs_with_task : d.lhs_before;
    if (std::isfinite(post_lhs)) headroom_.add_finite(d.bound - post_lhs);

    push_event(SpanKind::kDecision, d, task_id, touched, latency);
  }

  // Record a service-level span (fallback / rebalance). Spans go into the
  // ring and the span counter but not the per-reason decision counters —
  // the underlying decision is already counted by its home shard.
  void record_span(SpanKind kind, const core::AdmissionDecision& d,
                   std::uint64_t task_id, std::uint16_t touched);

  const TraceRing& ring() const { return ring_; }

  // Copies counters + histograms. Caller must hold the owning lock.
  SinkSnapshot snapshot() const;

 private:
  // frap:contract(hotpath)
  void push_event(SpanKind kind, const core::AdmissionDecision& d,
                  std::uint64_t task_id, std::uint16_t touched,
                  std::uint64_t latency_nanos) {
    DecisionEvent ev;
    ev.task_id = task_id;
    ev.arrival = d.arrival;
    ev.decided_at = d.decided_at;
    ev.lhs_before = d.lhs_before;
    ev.lhs_with_task = d.lhs_with_task;
    ev.bound = d.bound;
    ev.latency_nanos = latency_nanos;
    ev.reason = d.reason;
    ev.kind = kind;
    ev.admitted = d.admitted;
    ev.shard = shard_;
    ev.touched = touched;
    // The sink contract serializes all pushes under the owning lock, so the
    // ring's no-locked-instruction path applies; inlined end to end, the
    // compiler forwards these fields straight into the slot stores.
    ring_.push_serialized(ev);
  }

  std::uint16_t shard_;
  const Clock* clock_;
  std::uint32_t sample_period_;
  // Countdown to the next latency-sampled decision: a decrement + branch
  // instead of a modulo, which would cost a hardware divide per decision.
  std::uint32_t sample_countdown_;
  std::uint64_t decisions_by_reason_[kReasonCount] = {};
  std::uint64_t span_events_ = 0;
  metrics::Histogram latency_nanos_;
  metrics::Histogram headroom_;
  TraceRing ring_;
};

}  // namespace frap::obs
