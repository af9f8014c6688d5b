#include "core/admission.h"

#include <algorithm>
#include <cmath>

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::core {

namespace {

AdmissionDecision::Reason reject_reason(double lhs_with_task) {
  return std::isinf(lhs_with_task) ? AdmissionDecision::Reason::kStageSaturated
                                   : AdmissionDecision::Reason::kRegionFull;
}

}  // namespace

// ---------------------------------------------------------------- exact ---

AdmissionController::AdmissionController(sim::Simulator& sim,
                                         SyntheticUtilizationTracker& tracker,
                                         FeasibleRegion region)
    : sim_(sim), tracker_(tracker), region_(std::move(region)) {
  FRAP_EXPECTS(tracker_.num_stages() == region_.num_stages());
  scratch_.resize(region_.num_stages());
  commit_stages_.reserve(region_.num_stages());
  commit_values_.reserve(region_.num_stages());
}

void AdmissionController::set_approximate_means(
    std::vector<Duration> mean_compute) {
  FRAP_EXPECTS(mean_compute.size() == region_.num_stages());
  for (Duration c : mean_compute) FRAP_EXPECTS(c >= 0);
  mean_compute_ = std::move(mean_compute);
}

// frap:contract(hotpath)
double AdmissionController::incremental_lhs_with(
    const TaskSpec& spec, double lhs_before,
    std::uint16_t* touched_out) const {
  const double inv_d = util::safe_inv(spec.deadline);
  const double scale = tracker_.view_scale();
  const std::size_t n = region_.num_stages();
  double delta = 0;
  std::uint16_t touched = 0;
  bool saturated = false;
  for (std::size_t j = 0; j < n; ++j) {
    const double c = contribution(spec, j, inv_d);
    if (c <= 0) continue;  // sparse task: untouched stage, no delta
    ++touched;
    if (saturated) continue;  // only the touched count still matters
    const double u_new = tracker_.utilization(j) + c * scale;
    if (u_new >= 1.0) {  // the task saturates stage j
      if (touched_out == nullptr) return util::kInf;
      saturated = true;  // keep scanning so the count covers every stage
      continue;
    }
    delta += stage_delay_factor(u_new) - tracker_.stage_lhs_term(j);
  }
  if (touched_out != nullptr) *touched_out = touched;
  if (saturated) return util::kInf;
  // lhs_before is +infinity while some stage is already saturated; adding a
  // finite delta keeps it +infinity, as the full evaluation would.
  return lhs_before + delta;
}

// frap:contract(hotpath) -- push_back into vectors reserved to capacity
// (reserve_tracked_capacity); the operator-new hook test keeps it honest.
void AdmissionController::commit(const TaskSpec& spec,
                                 Time absolute_deadline) {
  const double inv_d = util::safe_inv(spec.deadline);
  // Collect the touched (stage, value) pairs in ascending stage order and
  // hand them to the sparse add: identical contribution values in the
  // identical order as the dense walk, minus the tracker's re-scan.
  commit_stages_.clear();
  commit_values_.clear();
  for (std::size_t j = 0; j < region_.num_stages(); ++j) {
    const double c = contribution(spec, j, inv_d);
    if (c <= 0) continue;
    commit_stages_.push_back(static_cast<std::uint32_t>(j));
    commit_values_.push_back(c);
  }
  tracker_.add_sparse(spec.id, commit_stages_.data(), commit_values_.data(),
                      static_cast<std::uint32_t>(commit_stages_.size()),
                      absolute_deadline);
}

bool AdmissionController::test(const TaskSpec& spec) const {
  FRAP_EXPECTS(spec.deadline > 0);
  FRAP_EXPECTS(spec.num_stages() == region_.num_stages());
  return region_.admits(incremental_lhs_with(spec, tracker_.cached_lhs()));
}

// frap:contract(hotpath)
AdmissionDecision AdmissionController::try_admit(const TaskSpec& spec,
                                                 Time now) {
  ++attempts_;
  const std::uint64_t t0 = sink_ != nullptr ? sink_->begin_decision() : 0;
  // Admission reads only deadline and per-stage computes; the full
  // spec.valid() walk (segment sums) is the runtime's precondition and too
  // expensive for the attempt hot path.
  FRAP_EXPECTS(spec.deadline > 0);
  FRAP_EXPECTS(spec.num_stages() == region_.num_stages());

  AdmissionDecision d;
  d.arrival = now;
  d.decided_at = sim_.now();
  d.bound = region_.bound();
  d.lhs_before = tracker_.cached_lhs();
  std::uint16_t touched = 0;
  d.lhs_with_task = incremental_lhs_with(
      spec, d.lhs_before, sink_ != nullptr ? &touched : nullptr);
  d.admitted = region_.admits(d.lhs_with_task);
  d.reason = d.admitted ? AdmissionDecision::Reason::kAdmitted
                        : reject_reason(d.lhs_with_task);

  if (d.admitted) {
    ++admitted_;
    commit(spec, now + spec.deadline);
  }
  if (sink_ != nullptr) sink_->record(d, spec.id, touched, t0);
  return d;
}

// ---------------------------------------------------------------- batch ---

const std::vector<AdmissionDecision>& BatchAdmissionController::try_admit_burst(
    std::span<const TaskSpec> specs) {
  ++bursts_;
  const Time now = inner_.now();
  decisions_.clear();
  for (const TaskSpec& spec : specs) {
    decisions_.push_back(inner_.try_admit(spec, now));
  }
  return decisions_;
}

// ------------------------------------------------------------- shedding ---

SheddingAdmissionController::SheddingAdmissionController(
    AdmissionController& inner, ShedCallback shed)
    : inner_(inner), shed_(std::move(shed)) {
  FRAP_EXPECTS(shed_ != nullptr);
}

AdmissionDecision SheddingAdmissionController::try_admit(const TaskSpec& spec,
                                                         Time now) {
  AdmissionDecision d = inner_.try_admit(spec, now);
  if (!d.admitted) {
    // Shed in increasing importance, but never a task at least as important
    // as the newcomer.
    auto it = admitted_by_importance_.begin();
    while (it != admitted_by_importance_.end() &&
           it->first < spec.importance) {
      const std::uint64_t victim = it->second;
      if (filter_ && !filter_(victim)) {
        // Not sheddable (e.g. already executing) — and it never will be,
        // so drop it from the candidate pool.
        it = admitted_by_importance_.erase(it);
        continue;
      }
      it = admitted_by_importance_.erase(it);
      if (!inner_.tracker().is_live(victim)) continue;  // already gone
      inner_.tracker().remove_task(victim);
      shed_(victim);
      ++tasks_shed_;
      d = inner_.try_admit(spec, now);
      if (d.admitted) {
        d.reason = AdmissionDecision::Reason::kShed;
        break;
      }
    }
  }
  if (d.admitted) {
    admitted_by_importance_.emplace(spec.importance, spec.id);
    prune_importance_index();
  }
  return d;
}

void SheddingAdmissionController::prune_importance_index() {
  // Tasks that expire or complete are erased only when a shed scan reaches
  // them; drop the dead entries once they outnumber the live ones. A prune
  // leaves live tasks only, so the next one takes about live + 64 more
  // admissions: amortized O(1) per admission.
  const SyntheticUtilizationTracker& tracker = inner_.tracker();
  if (admitted_by_importance_.size() <= 2 * tracker.live_tasks() + 64) return;
  std::erase_if(admitted_by_importance_, [&](const auto& entry) {
    return !tracker.is_live(entry.second);
  });
}

// ---------------------------------------------------------------- graph ---

GraphAdmissionController::GraphAdmissionController(
    sim::Simulator& sim, SyntheticUtilizationTracker& tracker,
    LongPathEvaluator evaluator)
    : sim_(sim), tracker_(tracker), evaluator_(std::move(evaluator)) {
  FRAP_EXPECTS(evaluator_.num_resources() == tracker_.num_stages());
  commit_stages_.reserve(tracker_.num_stages());
  commit_values_.reserve(tracker_.num_stages());
}

// frap:contract(hotpath) -- the per-attempt cost is O(touched resources +
// cached profile entries), independent of graph size; push_back only into
// vectors reserved to capacity at construction.
AdmissionDecision GraphAdmissionController::try_admit(const GraphTaskSpec& spec,
                                                      Time now) {
  ++attempts_;
  const std::uint64_t t0 = sink_ != nullptr ? sink_->begin_decision() : 0;
  // The layout was checked when the spec was canonicalized
  // (TaskGraphShapeRegistry interns only valid layouts); a canonical spec
  // carries no layout of its own to re-check, and evaluate() checks that
  // it is canonical in O(1).
  FRAP_EXPECTS(spec.deadline > 0);
  const LongPathEvaluator::Eval e = evaluator_.evaluate(spec, tracker_);

  AdmissionDecision d;
  d.arrival = now;
  d.decided_at = sim_.now();
  d.bound = LongPathEvaluator::kDelayBudget;
  d.lhs_before = e.lhs_before;
  d.lhs_with_task = e.lhs_with_task;
  d.admitted = e.admitted;
  d.reason = d.admitted ? AdmissionDecision::Reason::kAdmitted
                        : reject_reason(d.lhs_with_task);

  const auto touched = spec.shape->touched_resources();
  const auto& compute = spec.demands->resource_compute;
  if (d.admitted) {
    ++admitted_;
    // Sparse commit over the shape's touched-resource layout: ascending
    // stage order by construction, identical contribution values to the
    // ones the evaluation tested.
    const double inv_d = util::safe_inv(spec.deadline);
    commit_stages_.clear();
    commit_values_.clear();
    for (std::size_t t = 0; t < touched.size(); ++t) {
      const double c = compute[t] * inv_d;
      if (c <= 0) continue;  // zero-demand nodes contribute nothing
      commit_stages_.push_back(touched[t]);
      commit_values_.push_back(c);
    }
    tracker_.add_sparse(spec.id, commit_stages_.data(), commit_values_.data(),
                        static_cast<std::uint32_t>(commit_stages_.size()),
                        now + spec.deadline);
  }
  if (sink_ != nullptr) {
    sink_->record(d, spec.id, static_cast<std::uint16_t>(touched.size()), t0);
  }
  return d;
}

// -------------------------------------------------------------- waiting ---

WaitingAdmissionController::WaitingAdmissionController(
    sim::Simulator& sim, AdmissionController& inner, Duration patience)
    : sim_(sim), inner_(inner), patience_(patience) {
  FRAP_EXPECTS(patience >= 0);
}

void WaitingAdmissionController::attach() {
  inner_.tracker().set_on_decrease([this] { retry(); });
}

void WaitingAdmissionController::decide(const Pending& p,
                                        const AdmissionDecision& d) {
  if (decide_) decide_(p.spec, d);
}

AdmissionDecision WaitingAdmissionController::timed_out_decision(
    const Pending& p) const {
  // Final rejection after waiting: report the LHS pair of the last failed
  // test so the callback still sees how far outside the region the task was.
  AdmissionDecision d = p.last_test;
  d.admitted = false;
  d.reason = AdmissionDecision::Reason::kTimedOut;
  d.arrival = p.arrival;
  d.decided_at = sim_.now();
  return d;
}

void WaitingAdmissionController::submit(const TaskSpec& spec) {
  const Time arrival = sim_.now();
  Pending p{spec, arrival, AdmissionDecision{}, sim::kInvalidEventId};
  // FIFO: while earlier arrivals wait, newcomers queue behind them even if
  // they would fit — otherwise small tasks would starve large waiting ones.
  if (queue_.empty()) {
    const auto d = inner_.try_admit(spec, arrival);
    if (d.admitted) {
      decide(p, d);
      return;
    }
    p.last_test = d;
  } else {
    p.last_test.bound = inner_.region().bound();
    p.last_test.lhs_before = inner_.tracker().cached_lhs();
    p.last_test.lhs_with_task = p.last_test.lhs_before;
  }
  if (patience_ <= 0) {
    decide(p, timed_out_decision(p));
    return;
  }
  const std::uint64_t id = spec.id;
  p.timeout_event = sim_.after(patience_, [this, id] { timeout(id); });
  queue_.push_back(std::move(p));
}

void WaitingAdmissionController::retry() {
  // A decrease can fire while a retry scan is already running: an admitted
  // task's decision callback may cascade into expiries, idle resets, or
  // removals (e.g. the runtime starting the task synchronously completes a
  // zero-length subtask). Re-entering the scan here would double-process
  // the queue front, but silently dropping the notification could strand a
  // waiter that now fits until the NEXT decrease — so remember it and
  // re-arm the scan once the active pass finishes.
  if (retrying_) {
    rearm_ = true;
    return;
  }
  retrying_ = true;
  do {
    rearm_ = false;
    while (!queue_.empty()) {
      Pending& p = queue_.front();
      const auto d = inner_.try_admit(p.spec, p.arrival);
      if (!d.admitted) {
        p.last_test = d;
        break;  // FIFO: later tasks wait their turn
      }
      sim_.cancel(p.timeout_event);
      Pending done = std::move(p);
      queue_.pop_front();
      decide(done, d);
    }
    if (rearm_) ++rearmed_retries_;
  } while (rearm_);
  retrying_ = false;
}

void WaitingAdmissionController::timeout(std::uint64_t task_id) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [&](const Pending& p) { return p.spec.id == task_id; });
  if (it == queue_.end()) return;  // already admitted
  const bool was_front = it == queue_.begin();
  Pending done = std::move(*it);
  queue_.erase(it);
  ++timed_out_;
  decide(done, timed_out_decision(done));
  // A timeout promotes the next waiter to the front without any decrease
  // event; it has never been tested against the current state, so retry now
  // rather than stranding it until the next decrease.
  if (was_front && !queue_.empty()) retry();
}

}  // namespace frap::core
