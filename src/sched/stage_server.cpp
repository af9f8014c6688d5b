#include "sched/stage_server.h"

#include <algorithm>

#include "util/check.h"

namespace frap::sched {

namespace {

// A closure type rather than a function, so the sorting algorithms inline
// the comparison instead of calling through a pointer.
constexpr auto more_urgent = [](const Job* a, const Job* b) {
  return a->key < b->key;
};

}  // namespace

StageServer::StageServer(sim::Simulator& sim, std::string name,
                         const SchedulingPolicy& policy,
                         std::size_t num_processors)
    : sim_(sim),
      name_(std::move(name)),
      policy_(&policy),
      procs_(num_processors) {
  FRAP_EXPECTS(num_processors >= 1);
  chosen_.reserve(num_processors);
}

void StageServer::submit(Job& job) {
  FRAP_EXPECTS(!job.on_server);
  FRAP_EXPECTS(!job.segments.empty());
  if (procs_.size() > 1 || !policy_->supports_locks()) {
    // PCP is a uniprocessor protocol, and its ceilings are defined over
    // static task priorities: pools and dynamic-policy stages are lock-free.
    for (const auto& seg : job.segments) FRAP_EXPECTS(seg.lock == kNoLock);
  }
  job.on_server = true;
  job.segment_index = 0;
  job.remaining = job.segments[0].length;
  job.held_lock = kNoLock;
  job.key = PriorityKey{
      policy_->dispatch_key(JobView{&job, job.total_length()}, sim_.now()),
      next_seq_++};
  for (const auto& seg : job.segments) {
    if (seg.lock != kNoLock) locks_.note_user(seg.lock, job.priority_value);
  }
  active_.push_back(&job);
  dispatch();
}

void StageServer::abort(Job& job) {
  if (!job.on_server) return;
  auto it = std::find(active_.begin(), active_.end(), &job);
  if (it == active_.end()) return;  // on some other server
  for (auto& p : procs_) {
    if (p.running == &job) {
      stop(p);
      break;
    }
  }
  if (job.held_lock != kNoLock) locks_.release(job, job.held_lock);
  remove_active(job);
  dispatch();
  if (idle()) notify_idle();
}

double StageServer::utilization(Time from, Time to) const {
  FRAP_EXPECTS(to > from);
  Duration busy = 0;
  for (const auto& p : procs_) busy += p.meter.busy_time(from, to);
  return busy / (static_cast<double>(procs_.size()) * (to - from));
}

void StageServer::set_speed(double speed) {
  FRAP_EXPECTS(speed > 0);
  if (speed == speed_) return;
  // Bank running progress at the old speed, switch, redispatch (the same
  // jobs resume with their completion events recomputed).
  for (auto& p : procs_) {
    if (p.running != nullptr) stop(p);
  }
  speed_ = speed;
  if (!active_.empty()) dispatch();
}

void StageServer::refresh_keys() {
  if (policy_->key_mode() != KeyMode::kDynamic) return;
  const Time now = sim_.now();
  for (Job* job : active_) {
    Duration rem = in_progress_remaining(*job);
    for (std::size_t i = job->segment_index + 1; i < job->segments.size();
         ++i) {
      rem += job->segments[i].length;
    }
    job->key.value = policy_->dispatch_key(JobView{job, rem}, now);
  }
}

Duration StageServer::in_progress_remaining(const Job& job) const {
  for (const auto& p : procs_) {
    if (p.running == &job) {
      const Duration elapsed = (sim_.now() - p.started) * speed_;
      return std::max(0.0, job.remaining - elapsed);
    }
  }
  return job.remaining;
}

void StageServer::stop(Processor& p) {
  FRAP_ASSERT(p.running != nullptr);
  const Duration elapsed = (sim_.now() - p.started) * speed_;
  p.running->remaining = std::max(0.0, p.running->remaining - elapsed);
  if (timeline_ != nullptr) {
    timeline_->record(p.running->id, p.started, sim_.now(),
                      p.running->segment_index);
  }
  sim_.cancel(p.completion);
  p.completion = sim::kInvalidEventId;
  p.running = nullptr;
}

// frap:contract(hotpath)
void StageServer::dispatch() {
  refresh_keys();
  // Choose who runs: all active jobs when they fit, in submission order;
  // otherwise the m most urgent in key order (at m = 1 a single minimum
  // scan). chosen_ never exceeds its reserved capacity m, so no branch
  // allocates.
  const std::size_t m = procs_.size();
  if (active_.size() <= m) {
    chosen_.assign(active_.begin(), active_.end());
  } else if (m == 1) {
    chosen_.assign(
        1, *std::min_element(active_.begin(), active_.end(), more_urgent));
  } else {
    chosen_.resize(m);
    std::partial_sort_copy(active_.begin(), active_.end(), chosen_.begin(),
                           chosen_.end(), more_urgent);
  }
  // PCP (locks exist only at m = 1): a job blocked on a lock yields the
  // processor to the holder blocking it (priority inheritance).
  if (m == 1 && !chosen_.empty()) {
    Job* best = chosen_[0];
    const Segment& seg = best->segments[best->segment_index];
    if (seg.lock != kNoLock && best->held_lock != seg.lock &&
        !locks_.can_acquire(*best, seg.lock)) {
      Job* blk = locks_.blocker(*best, seg.lock);
      FRAP_ASSERT(blk != nullptr && blk != best);
      FRAP_ASSERT(blk->on_server);
      chosen_[0] = blk;
    }
  }
  // Reconcile the processors with the chosen set.
  const auto is_chosen = [this](const Job* j) {
    return std::find(chosen_.begin(), chosen_.end(), j) != chosen_.end();
  };
  // Preempt processors whose job fell out of the chosen set.
  for (auto& p : procs_) {
    if (p.running != nullptr && !is_chosen(p.running)) {
      stop(p);
      ++preemptions_;
    }
  }
  // Start chosen jobs that are not running, each on the first free
  // processor.
  for (Job* j : chosen_) {
    const auto running = [j](const Processor& p) { return p.running == j; };
    if (std::any_of(procs_.begin(), procs_.end(), running)) continue;
    auto free_proc = std::find_if(
        procs_.begin(), procs_.end(),
        [](const Processor& p) { return p.running == nullptr; });
    FRAP_ASSERT(free_proc != procs_.end());
    free_proc->running = j;
    j->has_started = true;
    free_proc->started = sim_.now();
    const Segment& seg = j->segments[j->segment_index];
    if (seg.lock != kNoLock && j->held_lock != seg.lock) {
      locks_.acquire(*j, seg.lock);
    }
    const std::size_t index =
        static_cast<std::size_t>(free_proc - procs_.begin());
    free_proc->completion =
        sim_.timer_at(sim_.now() + j->remaining / speed_, this, index);
  }
  // Meters transition only on busy <-> idle edges.
  for (auto& p : procs_) {
    if (p.running != nullptr && !p.meter_busy) {
      p.meter.set_busy(sim_.now());
      p.meter_busy = true;
    } else if (p.running == nullptr && p.meter_busy) {
      p.meter.set_idle(sim_.now());
      p.meter_busy = false;
    }
  }
}

void StageServer::on_timer(std::uint64_t processor) {
  Processor& p = procs_[processor];
  Job* job = p.running;
  FRAP_ASSERT(job != nullptr);
  p.completion = sim::kInvalidEventId;
  p.running = nullptr;
  job->remaining = 0;
  if (timeline_ != nullptr) {
    timeline_->record(job->id, p.started, sim_.now(), job->segment_index);
  }

  const Segment& seg = job->segments[job->segment_index];
  if (seg.lock != kNoLock && job->held_lock == seg.lock) {
    locks_.release(*job, seg.lock);
  }

  bool finished = false;
  if (job->segment_index + 1 < job->segments.size()) {
    ++job->segment_index;
    job->remaining = job->segments[job->segment_index].length;
  } else {
    remove_active(*job);
    finished = true;
  }

  dispatch();

  if (finished) {
    notify_complete(*job);
    if (idle()) notify_idle();
  }
}

void StageServer::remove_active(Job& job) {
  auto it = std::find(active_.begin(), active_.end(), &job);
  FRAP_ASSERT(it != active_.end());
  active_.erase(it);
  job.on_server = false;
}

// frap:contract(hotpath)
void StageServer::notify_complete(Job& job) {
  if (listener_ != nullptr) listener_->on_job_complete(*this, job);
}

// frap:contract(hotpath)
void StageServer::notify_idle() {
  if (listener_ != nullptr) listener_->on_stage_idle(*this);
}

}  // namespace frap::sched
