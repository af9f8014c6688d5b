// The compact per-decision trace record (docs/observability.md).
//
// One DecisionEvent is emitted for every decision a traced admission
// controller takes, plus span events for the sharded service's rare global
// operations (fallback, incl. quota steal). The struct is the PUBLIC
// form; inside the TraceRing it is stored field-for-field in relaxed
// atomics so concurrent snapshot readers never race producers.
#pragma once

#include <cstdint>

#include "core/admission_decision.h"
#include "util/time.h"

namespace frap::obs {

// What the event describes.
enum class SpanKind : std::uint8_t {
  kDecision = 0,  // one try_admit() outcome
  kFallback,      // sharded service global fallback pass (incl. quota steal)
};

const char* to_string(SpanKind kind);

// Shard id carried by events recorded at the service level (fallback
// spans) rather than by one shard's sink.
inline constexpr std::uint16_t kServiceShard = 0xFFFF;

// Largest latency a ring slot can carry (24-bit field in the packed meta
// word); larger samples saturate on push. ~16.7 ms, four decades above the
// latency histogram range, so only the raw trace ever sees the cap.
inline constexpr std::uint64_t kLatencySaturationNanos = (1u << 24) - 1;

struct DecisionEvent {
  // Monotone per-ring sequence number, assigned by TraceRing::push().
  std::uint64_t ticket = 0;

  std::uint64_t task_id = 0;
  Time arrival = kTimeZero;     // simulated arrival instant presented
  Time decided_at = kTimeZero;  // simulated instant the decision was taken

  // The evaluated region state: Σ f(U_j) before / including the task, and
  // the bound it was tested against (lhs_with_task is +inf for
  // stage-saturated rejects).
  double lhs_before = 0;
  double lhs_with_task = 0;
  double bound = 0;

  // Wall-clock duration of the decision measured through the obs::Clock
  // seam. 0 when this decision was not latency-sampled (see
  // SinkConfig::latency_sample_period) — sampling keeps the hot path off
  // the clock on most decisions. Ring slots store this in 24 bits, so a
  // value is saturated at ~16.7 ms (kLatencySaturationNanos) on push; the
  // latency histogram (range ~4 us) is unaffected.
  std::uint64_t latency_nanos = 0;

  core::AdmissionDecision::Reason reason =
      core::AdmissionDecision::Reason::kRegionFull;
  SpanKind kind = SpanKind::kDecision;
  bool admitted = false;
  std::uint16_t shard = 0;    // home shard (kServiceShard for spans)
  std::uint16_t touched = 0;  // stages the task actually touches (c_j > 0)
};

}  // namespace frap::obs
