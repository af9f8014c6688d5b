#include "core/synthetic_utilization.h"

#include <algorithm>
#include <cmath>

#include "core/stage_delay.h"
#include "util/check.h"

namespace frap::core {

SyntheticUtilizationTracker::SyntheticUtilizationTracker(
    sim::Simulator& sim, std::size_t num_stages)
    : sim_(sim), stage_(num_stages) {
  FRAP_EXPECTS(num_stages >= 1);
  scratch_stages_.reserve(num_stages);
  scratch_values_.reserve(num_stages);
}

void SyntheticUtilizationTracker::set_reservation(std::size_t stage,
                                                  double value) {
  FRAP_EXPECTS(stage < stage_.size());
  FRAP_EXPECTS(value >= 0 && value < 1.0);
  stage_[stage].reserved = value;
  refresh_stage_lhs(stage);
}

double SyntheticUtilizationTracker::reservation(std::size_t stage) const {
  FRAP_EXPECTS(stage < stage_.size());
  return stage_[stage].reserved;
}

std::vector<double> SyntheticUtilizationTracker::utilizations() const {
  std::vector<double> u;
  u.reserve(stage_.size());
  for (std::size_t j = 0; j < stage_.size(); ++j) u.push_back(utilization(j));
  return u;
}

void SyntheticUtilizationTracker::utilizations(std::span<double> out) const {
  FRAP_EXPECTS(out.size() == stage_.size());
  for (std::size_t j = 0; j < stage_.size(); ++j) out[j] = utilization(j);
}

void SyntheticUtilizationTracker::add(std::uint64_t task_id,
                                      std::span<const double> per_stage,
                                      Time absolute_deadline) {
  FRAP_EXPECTS(per_stage.size() == stage_.size());

  // Compact to touched (stage, value) pairs; add_sparse applies the stage
  // accounting in the same ascending order, bit-identical to the dense
  // per-stage walk this used to do inline.
  scratch_stages_.clear();
  scratch_values_.clear();
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    FRAP_EXPECTS(per_stage[j] >= 0);
    if (per_stage[j] == 0) continue;  // untouched stage: cache stays
    scratch_stages_.push_back(static_cast<std::uint32_t>(j));
    scratch_values_.push_back(per_stage[j]);
  }
  add_sparse(task_id, scratch_stages_.data(), scratch_values_.data(),
             static_cast<std::uint32_t>(scratch_stages_.size()),
             absolute_deadline);
}

void SyntheticUtilizationTracker::add_sparse(std::uint64_t task_id,
                                             const std::uint32_t* stages,
                                             const double* values,
                                             std::uint32_t count,
                                             Time absolute_deadline) {
  FRAP_EXPECTS(absolute_deadline >= sim_.now());
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t j = stages[i];
    FRAP_EXPECTS(j < stage_.size());
    FRAP_EXPECTS(values[i] > 0);
    stage_[j].dynamic += values[i];
    refresh_stage_lhs(j);
  }
  // Ascending-order validation happens in create(); id uniqueness is
  // enforced by insert(), whose probe walk asserts the key is absent —
  // a separate find() here would just pay the same probe twice.
  const TaskHandle h = store_.create(task_id, stages, values, count);
  store_.set_expiry(h, sim_.timer_at(absolute_deadline, this, h));
  id_map_.insert(task_id, TaskStore::index_of(h));
}

double SyntheticUtilizationTracker::strip_entry(TaskHandle h,
                                                std::uint32_t i) {
  const double c = store_.entry_value(h, i);
  if (c > 0) {
    const std::uint32_t stage = store_.entry_stage(h, i);
    stage_[stage].dynamic -= c;
    store_.set_entry_value(h, i, 0.0);
    refresh_stage_lhs(stage);
  }
  return c;
}

void SyntheticUtilizationTracker::on_timer(std::uint64_t payload) {
  // Expiry: the queue only fires timers that were never cancelled, and
  // remove_task cancels eagerly, so the handle must still be live.
  const TaskHandle h = payload;
  FRAP_ASSERT(store_.live(h));
  bool decreased = false;
  store_.strip_entries(h, [&](std::uint32_t stage, double c) {
    stage_[stage].dynamic -= c;
    refresh_stage_lhs(stage);
    decreased = true;
  });
  id_map_.erase(store_.task_id(h));
  store_.destroy(h);
  if (decreased) notify_decrease();
}

void SyntheticUtilizationTracker::mark_departed(std::uint64_t task_id,
                                                std::size_t stage) {
  FRAP_EXPECTS(stage < stage_.size());
  const std::uint32_t idx = id_map_.find(task_id);
  if (idx == util::IdMap::kNotFound) return;  // already expired
  const TaskHandle h = store_.handle_at(idx);
  const std::uint32_t e =
      store_.find_entry(h, static_cast<std::uint32_t>(stage));
  // A departure at a stage the task never touched can never strip anything;
  // recording it would only grow the queue.
  if (e == TaskStore::kNoEntry) return;
  if (!store_.entry_departed(h, e)) {
    store_.set_entry_departed(h, e);
    stage_[stage].departed_queue.push_back(h);
  }
}

void SyntheticUtilizationTracker::on_stage_idle(std::size_t stage) {
  FRAP_EXPECTS(stage < stage_.size());
  if (!idle_reset_) {
    return;
  }
  bool decreased = false;
  // Remove contributions of all tasks that have departed this stage: they
  // cannot affect its future schedule (Sec. 4). Stale handles (the task
  // expired or was removed since departing) fail the generation check and
  // are skipped.
  for (TaskHandle h : stage_[stage].departed_queue) {
    if (!store_.live(h)) continue;  // expired in the meantime
    const std::uint32_t e =
        store_.find_entry(h, static_cast<std::uint32_t>(stage));
    FRAP_ASSERT(e != TaskStore::kNoEntry);
    if (strip_entry(h, e) > 0) decreased = true;
  }
  stage_[stage].departed_queue.clear();
  if (decreased) notify_decrease();
}

void SyntheticUtilizationTracker::remove_task(std::uint64_t task_id) {
  const std::uint32_t idx = id_map_.find(task_id);
  if (idx == util::IdMap::kNotFound) return;
  const TaskHandle h = store_.handle_at(idx);
  bool decreased = false;
  store_.strip_entries(h, [&](std::uint32_t stage, double c) {
    stage_[stage].dynamic -= c;
    refresh_stage_lhs(stage);
    decreased = true;
  });
  // Cancel eagerly: the expiry leaves the event heap at once.
  (void)sim_.cancel(store_.expiry(h));
  id_map_.erase(task_id);
  store_.destroy(h);
  if (decreased) notify_decrease();
}

void SyntheticUtilizationTracker::set_view_scale(double scale) {
  FRAP_EXPECTS(scale > 0 && std::isfinite(scale));
  if (scale == view_scale_) return;
  const bool decreased = scale < view_scale_;
  view_scale_ = scale;
  // One from-scratch pass refreshes every cached f-term coherently.
  rebuild_lhs_cache();
#ifndef NDEBUG
  verify_lhs_cache();
#endif
  if (decreased) notify_decrease();
}

void SyntheticUtilizationTracker::refresh_stage_lhs(std::size_t stage) {
  StageState& s = stage_[stage];
  const double f_new = stage_delay_factor(utilization(stage));
  if (std::isinf(s.f_term)) {
    --saturated_stages_;
  } else {
    finite_lhs_ -= s.f_term;
  }
  s.f_term = f_new;
  if (std::isinf(f_new)) {
    ++saturated_stages_;
  } else {
    finite_lhs_ += f_new;
  }
  // frap-lint: allow(rederived-admission) -- counter compare against the
  // cache-rebuild interval; no admission decision is derived here.
  if (++updates_since_rebuild_ >= kLhsRebuildInterval) rebuild_lhs_cache();
#ifndef NDEBUG
  verify_lhs_cache();
#endif
}

double SyntheticUtilizationTracker::rebuild_lhs_cache() {
  finite_lhs_ = 0;
  saturated_stages_ = 0;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    stage_[j].f_term = stage_delay_factor(utilization(j));
    if (std::isinf(stage_[j].f_term)) {
      ++saturated_stages_;
    } else {
      finite_lhs_ += stage_[j].f_term;
    }
  }
  updates_since_rebuild_ = 0;
  cache_stats_.record_rebuild();
  return cached_lhs();
}

void SyntheticUtilizationTracker::verify_lhs_cache(double tolerance) {
  double recomputed = 0;
  bool saturated = false;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    const double f = stage_delay_factor(utilization(j));
    if (std::isinf(f)) {
      saturated = true;
    } else {
      recomputed += f;
    }
  }
  const double cached = cached_lhs();
  const bool cached_saturated = std::isinf(cached);
  const double drift =
      (saturated || cached_saturated) ? 0.0 : std::fabs(cached - recomputed);
  cache_stats_.record_crosscheck(drift);
  FRAP_ASSERT(saturated == cached_saturated);
  FRAP_ASSERT(drift <= tolerance);
}

void SyntheticUtilizationTracker::notify_decrease() {
  if (on_decrease_) on_decrease_();
}

}  // namespace frap::core
