#include "support/reference_tracker.h"

#include <algorithm>
#include <cmath>

#include "core/stage_delay.h"
#include "util/check.h"

namespace frap::testing {

ReferenceUtilizationTracker::ReferenceUtilizationTracker(
    sim::Simulator& sim, std::size_t num_stages, IdReuse id_reuse)
    : sim_(sim), stage_(num_stages), id_reuse_(id_reuse) {
  FRAP_EXPECTS(num_stages >= 1);
}

void ReferenceUtilizationTracker::set_reservation(std::size_t stage,
                                                  double value) {
  FRAP_EXPECTS(stage < stage_.size());
  FRAP_EXPECTS(value >= 0 && value < 1.0);
  stage_[stage].reserved = value;
  refresh_stage_lhs(stage);
}

double ReferenceUtilizationTracker::reservation(std::size_t stage) const {
  FRAP_EXPECTS(stage < stage_.size());
  return stage_[stage].reserved;
}

std::vector<double> ReferenceUtilizationTracker::utilizations() const {
  std::vector<double> u;
  u.reserve(stage_.size());
  for (std::size_t j = 0; j < stage_.size(); ++j) u.push_back(utilization(j));
  return u;
}

void ReferenceUtilizationTracker::add(std::uint64_t task_id,
                                      std::span<const double> per_stage,
                                      Time absolute_deadline) {
  FRAP_EXPECTS(per_stage.size() == stage_.size());
  FRAP_EXPECTS(absolute_deadline >= sim_.now());
  FRAP_EXPECTS(tasks_.find(task_id) == tasks_.end());

  TaskRecord rec;
  rec.contribution.assign(per_stage.begin(), per_stage.end());
  rec.departed.assign(stage_.size(), false);
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    FRAP_EXPECTS(rec.contribution[j] >= 0);
    if (rec.contribution[j] == 0) continue;  // untouched stage: cache stays
    stage_[j].dynamic += rec.contribution[j];
    refresh_stage_lhs(j);
  }
  rec.expiry_event =
      sim_.at(absolute_deadline, [this, task_id] { expire(task_id); });
  rec.epoch = next_epoch_++;
  tasks_.emplace(task_id, std::move(rec));
}

double ReferenceUtilizationTracker::strip_stage(TaskRecord& rec,
                                                std::size_t stage) {
  const double c = rec.contribution[stage];
  if (c > 0) {
    stage_[stage].dynamic -= c;
    rec.contribution[stage] = 0;
    refresh_stage_lhs(stage);
  }
  return c;
}

void ReferenceUtilizationTracker::expire(std::uint64_t task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  bool decreased = false;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    if (strip_stage(it->second, j) > 0) decreased = true;
  }
  tasks_.erase(it);
  if (decreased) notify_decrease();
}

void ReferenceUtilizationTracker::mark_departed(std::uint64_t task_id,
                                                std::size_t stage) {
  FRAP_EXPECTS(stage < stage_.size());
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;  // contribution already expired
  if (!it->second.departed[stage]) {
    it->second.departed[stage] = true;
    stage_[stage].departed_queue.push_back({task_id, it->second.epoch});
  }
}

void ReferenceUtilizationTracker::on_stage_idle(std::size_t stage) {
  FRAP_EXPECTS(stage < stage_.size());
  if (!idle_reset_) {
    return;
  }
  bool decreased = false;
  for (const QueueEntry& e : stage_[stage].departed_queue) {
    auto it = tasks_.find(e.id);
    if (it == tasks_.end()) continue;  // expired in the meantime
    // kFaithful reproduces the PR-1 aliasing defect: a stale entry whose id
    // was reused after remove_task strips the NEW task's contribution.
    // kCorrected drops entries from a different add() epoch instead.
    if (id_reuse_ == IdReuse::kCorrected && it->second.epoch != e.epoch) {
      continue;
    }
    if (strip_stage(it->second, stage) > 0) decreased = true;
  }
  stage_[stage].departed_queue.clear();
  if (decreased) notify_decrease();
}

void ReferenceUtilizationTracker::remove_task(std::uint64_t task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  bool decreased = false;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    if (strip_stage(it->second, j) > 0) decreased = true;
  }
  sim_.cancel(it->second.expiry_event);
  tasks_.erase(it);
  if (decreased) notify_decrease();
}

void ReferenceUtilizationTracker::set_view_scale(double scale) {
  FRAP_EXPECTS(scale > 0 && std::isfinite(scale));
  if (scale == view_scale_) return;
  const bool decreased = scale < view_scale_;
  view_scale_ = scale;
  rebuild_lhs_cache();
#ifndef NDEBUG
  verify_lhs_cache();
#endif
  if (decreased) notify_decrease();
}

void ReferenceUtilizationTracker::refresh_stage_lhs(std::size_t stage) {
  StageState& s = stage_[stage];
  const double f_new = core::stage_delay_factor(utilization(stage));
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

double ReferenceUtilizationTracker::rebuild_lhs_cache() {
  finite_lhs_ = 0;
  saturated_stages_ = 0;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    stage_[j].f_term = core::stage_delay_factor(utilization(j));
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

void ReferenceUtilizationTracker::verify_lhs_cache(double tolerance) {
  double recomputed = 0;
  bool saturated = false;
  for (std::size_t j = 0; j < stage_.size(); ++j) {
    const double f = core::stage_delay_factor(utilization(j));
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

void ReferenceUtilizationTracker::notify_decrease() {
  if (on_decrease_) on_decrease_();
}

}  // namespace frap::testing
