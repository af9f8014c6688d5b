// Test-support reference utilization store.
//
// ReferenceUtilizationTracker is the PR-1 SyntheticUtilizationTracker
// implementation preserved verbatim: task records in an
// `unordered_map<id, TaskRecord>` with dense per-stage contribution vectors
// and `vector<bool>` departed flags, expiries as type-erased closures on the
// simulator's event queue, departed queues keyed by raw task id. It exists
// so the slot-map/typed-timer store (core/synthetic_utilization.h)
// can be proven bit-compatible: the differential A/B sweep
// (tests/store_differential_test.cpp) drives both stores through identical
// mutation sequences and asserts identical decisions and utilizations, and
// bench/micro_admission uses it as the PR-1 cost baseline.
//
// The public surface mirrors SyntheticUtilizationTracker exactly (including
// the incremental LHS cache), so harness code can be written once against
// either. It lives in the test support library; nothing in src/ depends on
// it.
//
// Known latent defect, kept faithfully: departed queues store raw ids, so a
// task id reused after remove_task can alias a stale queue entry onto the
// new task's contribution at the next idle reset. The slot-map store fixes
// this with generation-checked handles. The defect is now selectable:
// IdReuse::kFaithful (the default) reproduces the PR-1 behavior bit-for-bit
// so the A/B sweep and the pinning regression test
// (StoreDifferential.IdReuseAliasingPinned) still observe it; kCorrected
// tags every departed-queue entry with the task's add() epoch and drops
// entries whose epoch no longer matches, which is the same discipline the
// slot-map generations enforce. Faithful-mode differential harnesses must
// still not reuse ids (docs/perf_internals.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "metrics/counters.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/math.h"
#include "util/time.h"

namespace frap::testing {

class ReferenceUtilizationTracker {
 public:
  // Handling of departed-queue entries whose task id was reused after
  // remove_task (see the header comment).
  enum class IdReuse : std::uint8_t {
    kFaithful,   // raw-id matching: reused ids alias stale entries (PR-1 bug)
    kCorrected,  // epoch-checked: stale entries are dropped at idle reset
  };

  ReferenceUtilizationTracker(sim::Simulator& sim, std::size_t num_stages,
                              IdReuse id_reuse = IdReuse::kFaithful);

  std::size_t num_stages() const { return stage_.size(); }

  void set_idle_reset_enabled(bool enabled) { idle_reset_ = enabled; }

  void set_reservation(std::size_t stage, double value);
  double reservation(std::size_t stage) const;

  double utilization(std::size_t stage) const {
    FRAP_EXPECTS(stage < stage_.size());
    const StageState& s = stage_[stage];
    return s.reserved + std::max(0.0, s.dynamic) * view_scale_;
  }

  double view_scale() const { return view_scale_; }

  std::vector<double> utilizations() const;

  void add(std::uint64_t task_id, std::span<const double> per_stage,
           Time absolute_deadline);

  void mark_departed(std::uint64_t task_id, std::size_t stage);

  void on_stage_idle(std::size_t stage);

  void remove_task(std::uint64_t task_id);

  void set_view_scale(double scale);

  void set_on_decrease(std::function<void()> cb) {
    on_decrease_ = std::move(cb);
  }

  double cached_lhs() const {
    if (saturated_stages_ > 0) return util::kInf;
    return std::max(0.0, finite_lhs_);
  }

  double stage_lhs_term(std::size_t stage) const {
    FRAP_EXPECTS(stage < stage_.size());
    return stage_[stage].f_term;
  }

  double rebuild_lhs_cache();

  void verify_lhs_cache(double tolerance = 1e-9);

  static constexpr std::uint64_t kLhsRebuildInterval = 4096;

  std::size_t live_tasks() const { return tasks_.size(); }

  [[nodiscard]] bool is_live(std::uint64_t task_id) const {
    return tasks_.find(task_id) != tasks_.end();
  }

 private:
  struct TaskRecord {
    std::vector<double> contribution;  // per stage; 0 = none/removed
    std::vector<bool> departed;        // subtask finished at stage
    sim::EventId expiry_event = sim::kInvalidEventId;
    std::uint64_t epoch = 0;  // add() sequence number (kCorrected matching)
  };

  struct QueueEntry {
    std::uint64_t id;
    std::uint64_t epoch;
  };

  struct StageState {
    double dynamic = 0;
    double reserved = 0;
    double f_term = 0;
    std::vector<QueueEntry> departed_queue;
  };

  void expire(std::uint64_t task_id);
  double strip_stage(TaskRecord& rec, std::size_t stage);
  void refresh_stage_lhs(std::size_t stage);
  void notify_decrease();

  sim::Simulator& sim_;
  std::vector<StageState> stage_;
  std::unordered_map<std::uint64_t, TaskRecord> tasks_;
  IdReuse id_reuse_ = IdReuse::kFaithful;
  std::uint64_t next_epoch_ = 0;
  bool idle_reset_ = true;
  double view_scale_ = 1.0;
  std::function<void()> on_decrease_;

  double finite_lhs_ = 0;
  std::size_t saturated_stages_ = 0;
  std::uint64_t updates_since_rebuild_ = 0;
  metrics::CacheConsistency cache_stats_;
};

}  // namespace frap::testing
