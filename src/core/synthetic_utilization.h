// Per-stage synthetic-utilization accounting (Sec. 2 and Sec. 4).
//
// U_j(t) = sum over current tasks of C_ij / D_i. The tracker maintains this
// quantity per stage with three mutations:
//   * add(): a task is admitted; its contribution joins every stage it
//     touches and an expiry timer is scheduled at its absolute deadline.
//   * expiry: at A_i + D_i the contribution leaves S(t) automatically.
//   * idle reset (Sec. 4): when a stage goes idle, contributions of tasks
//     that already *departed* the stage (finished their subtask there) are
//     removed early — they can no longer affect that stage's schedule. This
//     is the key pessimism-reducing device of the paper's admission
//     controller and can be disabled for the ablation study (A1).
//
// Reservations (Sec. 5): each stage carries a floor U_j^res representing
// capacity set aside for critical tasks; the reported utilization never
// drops below the floor.
//
// View scale: contributions are stored as given (unscaled) and the tracker
// reports U_j = reserved + s * dynamic_j for one scalar s (1 by default).
// The sharded admission service (src/service/) sets s = 1/w_k on shard k,
// so a quota-weight move is one O(stages) cache rebuild instead of a pass
// over every live task (docs/admission_service.md).
//
// Incremental region-LHS cache: alongside U_j the tracker maintains the
// per-stage stage-delay term f(U_j) and the running sum over stages, updated
// in O(changed stages) on every mutation. Admission controllers test an
// arrival against `cached_lhs() + sum of per-stage deltas` without touching
// untouched stages or allocating (docs/incremental_lhs.md).
//
// Storage and expiry (docs/perf_internals.md): task records live in a
// generation-checked slot map with pooled contribution storage (TaskStore),
// ids resolve through a flat open-addressing map, and expiries are typed
// timers on the simulator's event heap — the tracker IS the TimerClient,
// the payload is the task's slot-map handle. The steady-state
// admit -> expire cycle performs zero heap allocations once the pools are
// warm (tests/alloc_steady_state_test.cpp pins this), and remove_task/shed
// cancellation removes the timer from the heap immediately instead of
// leaving a dead entry until the deadline. Departed-task queues carry
// generation-checked handles, so a task id reused after removal can no
// longer alias a stale queue entry onto the new task's contribution (a
// latent defect of the id-keyed map this store replaced).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/task_store.h"
#include "metrics/counters.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/id_map.h"
#include "util/math.h"
#include "util/time.h"

namespace frap::core {

class SyntheticUtilizationTracker : public sim::TimerClient {
 public:
  SyntheticUtilizationTracker(sim::Simulator& sim, std::size_t num_stages);

  std::size_t num_stages() const { return stage_.size(); }

  // Disables the idle-reset rule (ablation A1). Default: enabled.
  void set_idle_reset_enabled(bool enabled) { idle_reset_ = enabled; }

  // Sets the reserved floor for a stage (Sec. 5). The floor contributes to
  // utilization() immediately and permanently.
  void set_reservation(std::size_t stage, double value);
  double reservation(std::size_t stage) const;

  // Current synthetic utilization of one stage in the scaled view
  // (reserved floor + view_scale() * unscaled load). Inline: called per
  // touched stage on the admission fast path. At the default scale 1 the
  // product is exact.
  double utilization(std::size_t stage) const {
    FRAP_EXPECTS(stage < stage_.size());
    return stage_[stage].reserved + unscaled_load(stage) * view_scale_;
  }

  // Sum of the stage's live contributions as they were added, without the
  // reserved floor and without the view scale.
  double unscaled_load(std::size_t stage) const {
    FRAP_EXPECTS(stage < stage_.size());
    // Floating-point cancellation can leave a tiny negative residue after
    // many add/remove cycles; clamp so region tests never see U < reserved.
    return std::max(0.0, stage_[stage].dynamic);
  }

  // Factor utilization() applies to every stored contribution. Admission
  // controllers scale an arrival's contributions by it when they test it
  // and commit them unscaled.
  double view_scale() const { return view_scale_; }

  // Snapshot across stages, in stage order.
  std::vector<double> utilizations() const;

  // Allocation-free snapshot into a caller-owned buffer of exactly
  // num_stages() elements (hot-path overload for runtimes and meters).
  void utilizations(std::span<double> out) const;

  // Registers an admitted task's contribution: per_stage[j] is C_ij / D_i
  // (zero entries are allowed and ignored). Expires automatically at
  // `absolute_deadline`. Task ids must be unique among live tasks.
  void add(std::uint64_t task_id, std::span<const double> per_stage,
           Time absolute_deadline);

  // Sparse variant of add(): `count` (stage, value) pairs in strictly
  // ascending stage order, every value > 0. Applies the identical stage
  // accounting in the identical (ascending) order, so the cache state and
  // every subsequent decision are bit-identical to the dense overload.
  // This is the hot-path entry point (AdmissionController::commit); it
  // skips the dense compaction scan entirely.
  void add_sparse(std::uint64_t task_id, const std::uint32_t* stages,
                  const double* values, std::uint32_t count,
                  Time absolute_deadline);

  // Marks that the task finished its work on `stage` (subtask departure).
  // Safe to call for tasks the tracker no longer knows (already expired).
  void mark_departed(std::uint64_t task_id, std::size_t stage);

  // Signals that `stage` went idle: under the idle-reset rule all departed
  // contributions at that stage are removed early.
  void on_stage_idle(std::size_t stage);

  // Removes the task's remaining contributions everywhere (used by load
  // shedding and by aborted tasks) and cancels its expiry timer, removing
  // it from the event heap immediately. No-op for unknown ids.
  void remove_task(std::uint64_t task_id);

  // Sets the view scale (> 0, finite) and rebuilds the LHS cache in
  // O(stages); no task record is touched. Reservation floors are not
  // scaled. Fires the on-decrease notification when the scale falls.
  void set_view_scale(double scale);

  // Callback fired after any utilization decrease (expiry, idle reset,
  // removal); waiting admission controllers retry from here.
  void set_on_decrease(std::function<void()> cb) {
    on_decrease_ = std::move(cb);
  }

  // --- incremental region-LHS cache --------------------------------------
  // The cache holds f(U_j) per stage and the running sum_j f(U_j), where f
  // is the stage-delay factor shared by every FeasibleRegion. Saturated
  // stages (U_j >= 1, f = +infinity) are counted separately so the running
  // sum only ever does finite arithmetic (no inf - inf = NaN).

  // Cached sum_j f(U_j); +infinity while any stage is saturated.
  double cached_lhs() const {
    if (saturated_stages_ > 0) return util::kInf;
    // The running sum can carry a tiny negative residue after many
    // add/strip cycles; clamp like utilization() does.
    return std::max(0.0, finite_lhs_);
  }

  // Cached f(U_j) for one stage (+infinity when saturated).
  double stage_lhs_term(std::size_t stage) const {
    FRAP_EXPECTS(stage < stage_.size());
    return stage_[stage].f_term;
  }

  // Recomputes every f-term and the running sum from scratch. Invoked
  // automatically every kLhsRebuildInterval stage updates so accumulated
  // floating-point drift stays far below admission-relevant magnitudes.
  // Returns the rebuilt cached_lhs().
  double rebuild_lhs_cache();

  // Recompute-and-compare cross-check: aborts (contract violation) if the
  // incremental LHS drifted more than `tolerance` from a from-scratch
  // recomputation. Runs after every mutation in debug builds (NDEBUG
  // undefined); release builds only run it when called explicitly.
  void verify_lhs_cache(double tolerance = 1e-9);

  // Cross-check / rebuild counters for observability.
  const metrics::CacheConsistency& lhs_cache_stats() const {
    return cache_stats_;
  }

  static constexpr std::uint64_t kLhsRebuildInterval = 4096;

  // Number of tasks with live (unexpired, unremoved) contributions.
  std::size_t live_tasks() const { return store_.size(); }

  // True while the task's contribution record exists (not yet expired or
  // removed).
  [[nodiscard]] bool is_live(std::uint64_t task_id) const {
    return id_map_.find(task_id) != util::IdMap::kNotFound;
  }

  // Typed expiry dispatch from the simulator; payload is the task's
  // slot-map handle. Public only because the simulator calls it — not an
  // API.
  void on_timer(std::uint64_t payload) override;

 private:
  struct StageState {
    double dynamic = 0;  // sum of live contributions, unscaled
    double reserved = 0; // floor
    double f_term = 0;   // cached stage_delay_factor(utilization)
    // Tasks that departed this stage since it last went idle; drained (and
    // their contributions stripped) on the next idle event. Keeps the idle
    // reset O(#departures) instead of O(#live tasks). Handles, not ids:
    // generation checks make entries for expired/removed tasks inert even
    // when the id is reused.
    std::vector<TaskHandle> departed_queue;
  };

  // Removes the contribution of touched-entry `i` of the task; returns the
  // amount removed.
  double strip_entry(TaskHandle h, std::uint32_t i);
  // Refreshes the stage's cached f-term and the running LHS sum after its
  // utilization changed. O(1); triggers a periodic full rebuild and, in
  // debug builds, the recompute-and-compare cross-check.
  void refresh_stage_lhs(std::size_t stage);
  void notify_decrease();

  sim::Simulator& sim_;
  std::vector<StageState> stage_;
  TaskStore store_;
  util::IdMap id_map_;  // task id -> slot index
  bool idle_reset_ = true;
  double view_scale_ = 1.0;
  std::function<void()> on_decrease_;

  // Reused compaction buffers for add(); capacity is retained across calls.
  std::vector<std::uint32_t> scratch_stages_;
  std::vector<double> scratch_values_;

  // Running LHS cache state (see cached_lhs()).
  double finite_lhs_ = 0;            // sum of finite f-terms
  std::size_t saturated_stages_ = 0; // stages with f = +infinity
  std::uint64_t updates_since_rebuild_ = 0;
  metrics::CacheConsistency cache_stats_;
};

}  // namespace frap::core
