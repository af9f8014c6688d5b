#include "sched/stage_executor.h"

#include <algorithm>

#include "util/check.h"

namespace frap::sched {

StageExecutor::StageExecutor(sim::Simulator& sim, std::string name,
                             const SchedulingPolicy& policy)
    : sim_(sim), name_(std::move(name)), policy_(&policy) {}

StageExecutor::~StageExecutor() = default;

void StageExecutor::set_listener(StageListener* listener) {
  listener_ = listener;
}

void StageExecutor::admit_job(Job& job) {
  FRAP_EXPECTS(!job.on_server);
  FRAP_EXPECTS(!job.segments.empty());
  job.on_server = true;
  job.segment_index = 0;
  job.remaining = job.segments[0].length;
  job.held_lock = kNoLock;
  job.key = PriorityKey{
      policy_->dispatch_key(JobView{&job, job.total_length()}, sim_.now()),
      next_seq_++};
  active_.push_back(&job);
}

void StageExecutor::refresh_keys() {
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

// frap:contract(hotpath)
void StageExecutor::notify_complete(Job& job) {
  if (listener_ != nullptr) listener_->on_job_complete(*this, job);
}

// frap:contract(hotpath)
void StageExecutor::notify_idle() {
  if (listener_ != nullptr) listener_->on_stage_idle(*this);
}

void StageExecutor::remove_active(Job& job) {
  auto it = std::find(active_.begin(), active_.end(), &job);
  FRAP_ASSERT(it != active_.end());
  active_.erase(it);
  job.on_server = false;
}

}  // namespace frap::sched
