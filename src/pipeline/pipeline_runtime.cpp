#include "pipeline/pipeline_runtime.h"

#include <string>

#include "util/check.h"

namespace frap::pipeline {

PriorityPolicy deadline_monotonic_policy() {
  return [](const core::TaskSpec& spec) { return spec.deadline; };
}

PipelineRuntime::PipelineRuntime(sim::Simulator& sim, std::size_t stages,
                                 core::SyntheticUtilizationTracker* tracker,
                                 const sched::SchedulingPolicy& sched_policy,
                                 std::size_t procs_per_stage)
    : sim_(sim), tracker_(tracker), policy_(deadline_monotonic_policy()) {
  FRAP_EXPECTS(stages >= 1);
  FRAP_EXPECTS(procs_per_stage >= 1);
  FRAP_EXPECTS(tracker_ == nullptr || tracker_->num_stages() == stages);
  servers_.reserve(stages);
  for (std::size_t j = 0; j < stages; ++j) {
    auto server = std::make_unique<sched::StageServer>(
        sim_, "stage-" + std::to_string(j), sched_policy, procs_per_stage);
    server->set_tag(j);
    server->set_listener(this);
    servers_.push_back(std::move(server));
  }
}

void PipelineRuntime::on_job_complete(sched::StageServer& stage,
                                      sched::Job& job) {
  on_stage_complete(stage.tag(), job);
}

void PipelineRuntime::on_stage_idle(sched::StageServer& stage) {
  if (tracker_ != nullptr) tracker_->on_stage_idle(stage.tag());
}

void PipelineRuntime::set_priority_policy(PriorityPolicy policy) {
  FRAP_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
}

void PipelineRuntime::set_stage_observer(obs::StageObserver* observer) {
  FRAP_EXPECTS(observer == nullptr ||
               observer->num_stages() == servers_.size());
  stage_obs_ = observer;
}

void PipelineRuntime::start_task(const core::TaskSpec& spec,
                                 Time absolute_deadline) {
  FRAP_EXPECTS(spec.valid());
  FRAP_EXPECTS(spec.num_stages() == servers_.size());
  FRAP_EXPECTS(execs_.find(spec.id) == execs_.end());

  Exec exec;
  exec.spec = spec;
  exec.release = sim_.now();
  exec.absolute_deadline = absolute_deadline;
  exec.priority = policy_(spec);
  auto [it, inserted] = execs_.emplace(spec.id, std::move(exec));
  FRAP_ASSERT(inserted);
  ++started_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kRelease, spec.id);
  }
  submit_to_stage(it->second, 0);
}

void PipelineRuntime::submit_to_stage(Exec& exec, std::size_t stage) {
  exec.current_stage = stage;
  exec.stage_enter = sim_.now();
  if (stage_obs_ != nullptr) stage_obs_->on_enqueue(stage, exec.stage_enter);
  const std::uint64_t job_id = next_job_id_++;
  exec.job = std::make_unique<sched::Job>(
      job_id, exec.priority, exec.spec.stages[stage].make_segments());
  // Dynamic policies (EDF/LLF) key off the task's end-to-end absolute
  // deadline; the fixed-priority default ignores this field.
  exec.job->absolute_deadline = exec.absolute_deadline;
  job_to_task_.emplace(job_id, exec.spec.id);
  servers_[stage]->submit(*exec.job);
}

void PipelineRuntime::on_stage_complete(std::size_t stage, sched::Job& job) {
  auto jt = job_to_task_.find(job.id);
  FRAP_ASSERT(jt != job_to_task_.end());
  const std::uint64_t task_id = jt->second;
  job_to_task_.erase(jt);

  auto et = execs_.find(task_id);
  FRAP_ASSERT(et != execs_.end());
  Exec& exec = et->second;
  FRAP_ASSERT(exec.current_stage == stage);

  if (tracker_ != nullptr) tracker_->mark_departed(task_id, stage);
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kStageDeparture, task_id,
                   stage);
  }
  if (stage_obs_ != nullptr) {
    stage_obs_->on_depart(stage, exec.stage_enter, sim_.now());
  }

  if (stage + 1 < servers_.size()) {
    submit_to_stage(exec, stage + 1);
    return;
  }

  // End-to-end completion.
  const Duration response = sim_.now() - exec.release;
  const bool missed = sim_.now() > exec.absolute_deadline + 1e-12;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kComplete, task_id,
                   missed ? 1 : 0);
  }
  ++completed_;
  misses_.record(missed);
  response_.add(response);
  if (on_complete_) {
    // Move the spec out before erasing so the callback sees stable data.
    core::TaskSpec spec = std::move(exec.spec);
    execs_.erase(et);
    on_complete_(spec, response, missed);
  } else {
    execs_.erase(et);
  }
}

void PipelineRuntime::abort_task(std::uint64_t task_id) {
  auto et = execs_.find(task_id);
  if (et == execs_.end()) return;
  Exec& exec = et->second;
  if (exec.job != nullptr) {
    job_to_task_.erase(exec.job->id);
    servers_[exec.current_stage]->abort(*exec.job);
    if (stage_obs_ != nullptr) {
      // The shed task still leaves its stage queue; depart it here so the
      // observer's depth gauge conserves (enqueues == departs + in-flight).
      stage_obs_->on_depart(exec.current_stage, exec.stage_enter, sim_.now());
    }
  }
  execs_.erase(et);
  ++aborted_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kShed, task_id);
  }
}

bool PipelineRuntime::task_started_executing(std::uint64_t task_id) const {
  auto it = execs_.find(task_id);
  if (it == execs_.end()) return true;  // completed or unknown: conservative
  const Exec& exec = it->second;
  if (exec.current_stage > 0) return true;
  return exec.job != nullptr && exec.job->has_started;
}

std::vector<double> PipelineRuntime::stage_utilizations(Time from,
                                                        Time to) const {
  std::vector<double> u(servers_.size());
  stage_utilizations(from, to, u);
  return u;
}

void PipelineRuntime::stage_utilizations(Time from, Time to,
                                         std::span<double> out) const {
  FRAP_EXPECTS(out.size() == servers_.size());
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    out[j] = servers_[j]->utilization(from, to);
  }
}

}  // namespace frap::pipeline
