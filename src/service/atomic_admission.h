// Lock-free fixed-point admission guard — one per shard.
//
// The guard lets most admission decisions complete without the shard mutex
// by keeping a conservatively-quantized view of the shard's region LHS in a
// single 64-bit atomic (the sledge-serverless admissions-control idiom:
// admitted capacity in fixed-point granularity, reserved by CAS). All
// quantities are 32.32 quanta (core/fixed_point.h).
//
// State (all updated so that rounding errors are conservative):
//   * qlhs_   — committed-LHS floor PLUS every outstanding reservation
//               (each rounded UP). Invariant: qlhs_ == qfloor_ + Σ reserved.
//   * qfloor_ — floor of the EXACT committed LHS, republished under the
//               shard mutex after every mutation (reconcile_locked).
//   * next_event_at_ — the shard simulator's earliest pending event. A
//               decision for an arrival strictly BEFORE this horizon sees
//               exactly the state the exact path would see: no expiry can
//               fire in between, so a fast reject is decision-identical to
//               the mutex path, and the horizon also keeps rejects LIVE
//               (once arrivals pass an expiry the path defers to the mutex,
//               which drains the expiry and frees capacity).
//
// classify() returns one of three verdicts for an arriving task:
//   * kAdmit — a CAS installed a reservation of ceil(d_hi) quanta, where
//     d_hi = Σ_{c_j>0} [f(u_cap + c_j) − f(u_cap)] with u_cap = f⁻¹(bound)
//     over-estimates the task's exact LHS delta at ANY feasible committed
//     state: each committed stage satisfies f(U_j) ≤ Σ f ≤ bound, so
//     U_j ≤ u_cap, and convexity of f makes the increment nondecreasing in
//     the base. Together with the STRICT quantized predicate
//     (FeasibleRegion::admits_quantized) this proves the exact test at
//     commit time re-admits the task — the rounding-direction soundness
//     argument is spelled out in docs/admission_service.md.
//   * kReject — the task provably fails the exact test: either some c_j ≥ 1
//     (state-independent stage saturation), or
//     floor(committed) + floor(Σ f(c_j)) exceeds the bound ceiling
//     (Σ f(c_j) under-estimates the delta by convexity at base 0) AND the
//     arrival is inside the staleness horizon.
//   * kInconclusive — the atomic test landed within the rounding slack of
//     the bound (or a weight/expiry horizon got in the way): the caller
//     must retry on the exact mutex path. Boundary TIES quantize here, by
//     design — never into kAdmit.
//
// Weight changes: a rebalance alters the scaled view mid-flight, which can
// invalidate an outstanding reservation's d_hi bound. The sharded service
// therefore re-runs the exact test under the mutex as the final authority
// on every commit; the guard's guarantee is "provably re-admittable while
// the shard's weight is unchanged", which is exactly what the A/B mirror
// harness exercises.
//
// Thread safety: classify() from any thread; reconcile_locked() only under
// the owning shard's mutex. frap-lint R5 sanctions the atomics (src/service
// concurrency carve-out).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/feasible_region.h"
#include "core/task.h"
#include "util/time.h"

namespace frap::service {

class AtomicAdmissionGuard {
 public:
  enum class Verdict : std::uint8_t { kAdmit, kReject, kInconclusive };

  struct FastResult {
    Verdict verdict = Verdict::kInconclusive;
    // Quanta reserved by the CAS (kAdmit only); hand back to
    // reconcile_locked as `released_quanta` once the exact path commits or
    // declines the task.
    std::uint64_t reserved = 0;
    // kReject detail: true when some scaled c_j >= 1 (stage saturation).
    bool saturates = false;
    // Conservative reporting pair for fast rejects: the committed-LHS floor
    // at classify time and the under-estimated task delta.
    double lhs_floor = 0;
    double delta_floor = 0;
  };

  explicit AtomicAdmissionGuard(const core::FeasibleRegion& region);

  AtomicAdmissionGuard(const AtomicAdmissionGuard&) = delete;
  AtomicAdmissionGuard& operator=(const AtomicAdmissionGuard&) = delete;

  // Lock-free three-way classification of `spec` (exact-contribution mode,
  // scaled by `inv_weight`) presented at `now`. When `allow_fast_reject` is
  // false only kAdmit / kInconclusive are possible (the sharded service
  // disables fast rejects while tracing, so every traced decision flows
  // through a recording sink).
  [[nodiscard]] FastResult classify(const core::TaskSpec& spec,
                                    double inv_weight, Time now,
                                    bool allow_fast_reject);

  // Attempts to install a reservation of `quanta` via CAS against the
  // STRICT quantized admit predicate. Public as the boundary-tie regression
  // seam: reserving exactly up to the bound floor must fail (tie ->
  // inconclusive), one quantum less must succeed.
  [[nodiscard]] bool try_reserve(std::uint64_t quanta);

  // Republishes the exact committed state. Call under the owning shard's
  // mutex after EVERY mutation batch (admission commit, expiry-advancing
  // run_until, weight move), passing the tracker's exact LHS, the simulator's
  // earliest pending event (+inf when idle), and the quanta of the
  // reservation being retired by this call (0 when none). The quantized
  // LHS is adjusted by fetch_add of the floor delta minus the released
  // reservation — never a plain store, which would race concurrent CAS
  // reservations.
  void reconcile_locked(double committed_lhs, Time next_event_at,
                        std::uint64_t released_quanta);

  // Observability / test accessors.
  [[nodiscard]] std::uint64_t quantized_lhs() const {
    // frap:contract(order: acquire pairs with the release fetch_adds in
    // try_reserve/reconcile_locked so a test that observed a commit sees it)
    return qlhs_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t committed_floor() const {
    // frap:contract(order: acquire pairs with reconcile_locked's even
    // seqlock publish; a reader that saw the publish sees this floor)
    return qfloor_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Time staleness_horizon() const {
    // frap:contract(order: acquire pairs with reconcile_locked's even
    // seqlock publish; the horizon is never newer than the floor read)
    return next_event_at_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bound_floor() const { return qbound_floor_; }
  [[nodiscard]] std::uint64_t bound_ceil() const { return qbound_ceil_; }

 private:
  const std::uint64_t qbound_floor_;
  const std::uint64_t qbound_ceil_;
  // Per-stage utilization cap of any feasible committed state, nudged up a
  // hair so floating-point rounding can never make it optimistic, and its
  // f-term (subtracted once per touched stage when building d_hi).
  double u_cap_;
  double f_ucap_;

  std::atomic<std::uint64_t> qlhs_{0};
  std::atomic<std::uint64_t> qfloor_{0};
  std::atomic<Time> next_event_at_;
  // Seqlock over the (qfloor_, next_event_at_) pair: a fast reject is only
  // sound when BOTH come from the same reconcile — a floor from one
  // publication combined with a horizon from a later one could reject a
  // task whose capacity an interleaved expiry drain just freed. Odd while
  // reconcile_locked is writing; readers that observe a bump fall through
  // to the exact path instead of retrying.
  std::atomic<std::uint64_t> reconcile_seq_{0};
};

}  // namespace frap::service
