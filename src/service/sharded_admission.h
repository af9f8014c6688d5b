// K-way sharded concurrent admission service.
//
// Partitions the region budget Σ_j f(U_j) ≤ B across K shards by quota
// WEIGHTS (service/quota.h): shard k holds weight w_k, Σ w_k = 1, and runs
// an unmodified single-threaded core::AdmissionController over a tracker
// that stores contributions unscaled and views them at scale 1/w_k, tested
// against the full bound B. A weight move changes only that view scale.
// Convexity of f (Jensen) makes every purely local admission globally
// sound, so the hot path takes exactly one uncontended shard mutex and
// never synchronizes across shards (docs/admission_service.md derives the
// invariant and its limits).
//
// Four paths:
//   * ATOMIC FAST PATH (enable_atomic_fast_path, default on) — each shard
//     additionally keeps its region LHS quantized into a 64-bit fixed-point
//     atomic (service/atomic_admission.h). Certain rejects return without
//     ANY lock; admits reserve quanta with one CAS and then take the shard
//     mutex only to commit, where the exact test re-confirms (reason
//     kAtomicFastPath). Decisions the quantized view cannot settle —
//     boundary ties and anything inside the rounding slack — fall through
//     to the mutex path below (admits there carry kSlowPathFallback).
//   * HOT PATH — route(spec.id) picks the home shard; under that shard's
//     mutex its private simulator is advanced and its controller decides.
//     Zero cross-shard synchronization.
//   * GLOBAL FALLBACK — a task the home shard cannot take is retried under
//     the global mutex (all shard locks, fixed order): first against every
//     other shard's existing headroom, then by shrinking donor shards to
//     their minimum feasible weights and growing one receiver so the task
//     fits (work-stealing of unused quota). A task the TRUE global region
//     rejects skips the stealing: no weight split could admit it. A task
//     rejected here is reported with the TRUE global LHS pair and
//     Reason::kQuotaFallbackRejected. The weight partition makes per-shard
//     tests conservative, so the fallback can only ever admit MORE than
//     pure-local quotas — never a task the unsharded region test rejects.
//   * REBALANCE — on demand (rebalance()), weights are reassigned
//     demand-proportionally, floored at each shard's minimum feasible
//     weight, so persistent skew does not keep forcing arrivals through the
//     fallback lock.
//
// Time: each shard owns a private sim::Simulator. Shard clocks are advanced
// to the caller-presented `now` lazily; a caller presenting a timestamp
// older than the shard's clock is anchored at the shard clock (per-shard
// time is monotone). Decisions carry the shard's SCALED LHS view for local
// decisions and the true global LHS for fallback rejections; `bound` is
// always the full region bound B.
//
// Thread safety: try_admit / rebalance / stats / global_utilizations may be
// called from any thread. Lock order is global_mu_ before shard mutexes in
// index order; the hot path holds only the home shard's mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/admission.h"
#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "core/task.h"
#include "metrics/counters.h"
#include "obs/observer.h"
#include "service/atomic_admission.h"
#include "service/quota.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace frap::service {

struct ShardedAdmissionConfig {
  std::size_t num_shards = 4;
  // Weight floor per shard (see QuotaPlan): keeps every shard able to admit
  // small tasks locally even after aggressive stealing.
  double min_weight = QuotaPlan::kDefaultMinWeight;
  // When false, a local rejection is final (pure-local quotas): used by the
  // soundness A/B tests as the comparison baseline and by benchmarks to
  // measure the uncontended hot path.
  bool enable_fallback = true;
  // Lock-free fixed-point fast path (service/atomic_admission.h). Off, the
  // service behaves exactly as before the atomic path existed (admits are
  // reported kAdmitted) — the A/B soundness tests use that as the mirror.
  bool enable_atomic_fast_path = true;
};

struct ShardStats {
  std::uint64_t admits = 0;           // mutex hot-path admissions
  std::uint64_t rejects = 0;          // final local rejections
  std::uint64_t fallback_admits = 0;  // admitted via the global path
  std::uint64_t fallback_rejects = 0; // rejected even by the global path
  std::uint64_t atomic_admits = 0;    // CAS-reserved, exact-confirmed
  std::uint64_t atomic_rejects = 0;   // final lock-free rejections
  // Atomic tests that landed in the rounding slack and were retried on the
  // exact path (their outcome is counted under admits/rejects/fallback_*).
  std::uint64_t atomic_inconclusive = 0;
  double weight = 0;
  std::size_t live_tasks = 0;
};

struct ServiceStats {
  std::vector<ShardStats> shards;
  // Every try_admit call, whichever path settled it (the sum of the
  // per-shard outcome counters).
  std::uint64_t decisions = 0;
  std::uint64_t rebalances = 0;

  std::uint64_t total_admits() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) {
      n += s.admits + s.fallback_admits + s.atomic_admits;
    }
    return n;
  }
  std::uint64_t total_rejects() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) {
      n += s.rejects + s.fallback_rejects + s.atomic_rejects;
    }
    return n;
  }
};

class ShardedAdmissionService final {
 public:
  ShardedAdmissionService(core::FeasibleRegion region,
                          ShardedAdmissionConfig config = {});

  ShardedAdmissionService(const ShardedAdmissionService&) = delete;
  ShardedAdmissionService& operator=(const ShardedAdmissionService&) = delete;

  // Decides `spec` presented at `now` on its home shard; falls back to the
  // global path when enabled and the home shard rejects.
  [[nodiscard]] core::AdmissionDecision try_admit(const core::TaskSpec& spec,
                                                  Time now);

  std::size_t num_shards() const { return shards_.size(); }

  // Home shard of a task id. Deliberately the plain modulus so tests and
  // benchmarks can construct ids that land on a chosen shard.
  std::size_t route(std::uint64_t task_id) const {
    return static_cast<std::size_t>(task_id % shards_.size());
  }

  // Demand-proportional weight reassignment, floored at each shard's
  // minimum feasible weight. No-op (not counted) when every weight would
  // move by less than the deadband.
  void rebalance(Time now);

  // Snapshot of per-shard counters and weights. Counters are relaxed
  // atomics: a snapshot taken concurrently with admissions is eventually
  // consistent.
  ServiceStats stats() const;

  // True (unscaled) per-stage utilization across all shards, advanced to
  // `now`. Takes the global lock.
  std::vector<double> global_utilizations(Time now);

  const core::FeasibleRegion& region() const { return region_; }
  const ShardedAdmissionConfig& config() const { return cfg_; }

  // Decision tracing (docs/observability.md): builds one Observer with a
  // DecisionSink per shard (ring + histograms, serialized by that shard's
  // mutex) plus a service-level sink that receives kFallback / kRebalance
  // span events under global_mu_. Call once, before concurrent use; a null
  // clock wires the real monotonic clock (tests pass a ManualClock).
  void enable_tracing(const obs::SinkConfig& sink_cfg = {},
                      const obs::Clock* clock = nullptr);
  [[nodiscard]] bool tracing_enabled() const { return observer_ != nullptr; }

  // The live observer (tracing must be enabled). Reading a live sink's ring
  // via observer().sink(k).ring().snapshot() is always safe; histogram /
  // counter reads need obs_snapshot().
  obs::Observer& observer();

  // Consistent metrics snapshot: takes global_mu_ plus every shard mutex,
  // so counters and histograms are mutually coherent.
  obs::MetricsSnapshot obs_snapshot() const;

 private:
  struct Shard {
    Shard(const core::FeasibleRegion& region, double w);

    mutable std::mutex mu;
    sim::Simulator sim;
    core::SyntheticUtilizationTracker tracker;
    core::AdmissionController controller;
    double weight;  // guarded by mu (plus global_mu_ for writers)
    // Lock-free quantized view + the 1/weight the fast path scales
    // contributions by (written under mu, read without it).
    AtomicAdmissionGuard guard;
    std::atomic<double> inv_weight;
    metrics::AtomicCounter admits;
    metrics::AtomicCounter rejects;
    metrics::AtomicCounter fallback_admits;
    metrics::AtomicCounter fallback_rejects;
    metrics::AtomicCounter atomic_admits;
    metrics::AtomicCounter atomic_rejects;
    metrics::AtomicCounter atomic_inconclusive;
  };

  // All-shard helpers; caller must hold global_mu_ and every shard mutex.
  Time advance_all_locked(Time now);
  std::vector<std::size_t> shards_by_headroom_locked() const;
  std::vector<double> true_utilizations_locked() const;
  // Smallest weight at which the shard's current true load still passes the
  // region test in the scaled view (>= cfg_.min_weight; bisection).
  double min_feasible_weight_locked(const Shard& sh) const;
  // Would the shard pass the region test at weight `w` with `add` (true,
  // unscaled contributions) on top of its current load?
  bool fits_at_weight_locked(const Shard& sh,
                             const std::vector<double>& add, double w) const;
  void apply_weight_locked(Shard& sh, double w_new);

  core::AdmissionDecision fallback(std::size_t origin,
                                   const core::TaskSpec& spec, Time now);
  core::AdmissionDecision fallback_decide_locked(std::size_t origin,
                                                 const core::TaskSpec& spec,
                                                 Time now, Time eff);

  // Republishes one shard's guard from its exact tracker/simulator state;
  // caller holds that shard's mutex. `released_quanta` retires a CAS
  // reservation being converted (or abandoned) by this same critical
  // section. No-op when the atomic path is disabled.
  void sync_guard_locked(Shard& sh, std::uint64_t released_quanta);
  // All shards; caller holds global_mu_ and every shard mutex.
  void sync_all_guards_locked();
  // The decision record for a lock-free rejection: conservative quantized
  // LHS pair, arrival == decided_at == now (the fast path never touches
  // the shard clock).
  core::AdmissionDecision fast_reject_decision(
      const AtomicAdmissionGuard::FastResult& fast, Time now) const;

  core::FeasibleRegion region_;
  ShardedAdmissionConfig cfg_;
  QuotaPlan quota_;  // guarded by global_mu_ + all shard mutexes
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex global_mu_;
  metrics::AtomicCounter rebalances_;
  // Set once by enable_tracing (before concurrent use); the fast path
  // reads it lock-free to disable fast rejects, which would otherwise
  // bypass the per-shard recording sinks.
  std::atomic<bool> tracing_{false};
  std::unique_ptr<obs::Observer> observer_;  // null until enable_tracing
};

}  // namespace frap::service
