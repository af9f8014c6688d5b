#include "pipeline/pipeline_runtime.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "core/task_graph_shape.h"
#include "util/check.h"

namespace frap::pipeline {

namespace {

template <typename Spec>
constexpr bool kIsPipeline = std::is_same_v<Spec, core::TaskSpec>;

}  // namespace

PriorityPolicy deadline_monotonic_policy() {
  return [](const core::TaskSpec& spec) { return spec.deadline; };
}

template <typename Spec>
TaskRuntime<Spec>::TaskRuntime(sim::Simulator& sim, std::size_t stages,
                               core::SyntheticUtilizationTracker* tracker,
                               const sched::SchedulingPolicy& sched_policy,
                               std::size_t procs_per_stage)
    : sim_(sim),
      tracker_(tracker),
      policy_([](const Spec& spec) { return spec.deadline; }) {
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

template <typename Spec>
void TaskRuntime<Spec>::on_stage_idle(sched::StageServer& stage) {
  if (tracker_ != nullptr) tracker_->on_stage_idle(stage.tag());
}

template <typename Spec>
void TaskRuntime<Spec>::set_priority_policy(PriorityPolicy policy) {
  FRAP_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
}

template <typename Spec>
void TaskRuntime<Spec>::set_stage_observer(obs::StageObserver* observer) {
  FRAP_EXPECTS(observer == nullptr ||
               observer->num_stages() == servers_.size());
  stage_obs_ = observer;
}

// --- topology reads ---

template <typename Spec>
void TaskRuntime<Spec>::expect_valid(const Spec& spec, std::size_t stages) {
  if constexpr (kIsPipeline<Spec>) {
    FRAP_EXPECTS(spec.valid());
    FRAP_EXPECTS(spec.num_stages() == stages);
  } else {
    // The shape was validated at intern time, so valid() is O(1).
    core::expect_canonical(spec);
    FRAP_EXPECTS(spec.valid(stages));
  }
}

template <typename Spec>
std::size_t TaskRuntime<Spec>::node_count(const Spec& spec) {
  if constexpr (kIsPipeline<Spec>) {
    return spec.num_stages();
  } else {
    return spec.num_nodes();
  }
}

template <typename Spec>
std::size_t TaskRuntime<Spec>::node_stage(const Exec& exec, std::size_t node) {
  if constexpr (kIsPipeline<Spec>) {
    return node;
  } else {
    return exec.spec.shape->node_resource()[node];
  }
}

template <typename Spec>
std::span<const sched::Segment> TaskRuntime<Spec>::node_segments(
    Exec& exec, std::size_t node) {
  if constexpr (kIsPipeline<Spec>) {
    const core::StageDemand& d = exec.spec.stages[node];
    if (!d.segments.empty()) return d.segments;
    sched::Segment& single = exec.nodes[node].single;
    single = sched::Segment{d.compute, sched::kNoLock};
    return {&single, 1};
  } else {
    return exec.spec.demands->node_segments(node);
  }
}

template <typename Spec>
void TaskRuntime<Spec>::init_precedence(Exec& exec) {
  const std::size_t n = exec.num_nodes;
  if constexpr (kIsPipeline<Spec>) {
    for (std::size_t v = 1; v < n; ++v) exec.nodes[v].pending_preds = 1;
  } else {
    // The shape holds the topology (indegrees, CSR adjacency), so the
    // Exec's spec copy is O(1).
    const auto indeg = exec.spec.shape->indegree();
    for (std::size_t v = 0; v < n; ++v) {
      exec.nodes[v].pending_preds = indeg[v];
    }
  }
}

template <typename Spec>
void TaskRuntime<Spec>::release_successors(Exec& exec, std::size_t node) {
  auto ready = [&](std::size_t succ) {
    FRAP_ASSERT(exec.nodes[succ].pending_preds > 0);
    if (--exec.nodes[succ].pending_preds == 0) release_node(exec, succ);
  };
  if constexpr (kIsPipeline<Spec>) {
    if (node + 1 < exec.num_nodes) ready(node + 1);
  } else {
    for (std::uint32_t succ : exec.spec.shape->successors(node)) ready(succ);
  }
}

// --- lifecycle ---

template <typename Spec>
void TaskRuntime<Spec>::start_task(const Spec& spec, Time absolute_deadline) {
  expect_valid(spec, servers_.size());
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::make_unique<Exec>());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_.insert(spec.id, slot);  // the id must not be in flight

  Exec& exec = *slots_[slot];
  exec.spec = spec;
  exec.release = sim_.now();
  exec.absolute_deadline = absolute_deadline;
  exec.priority = policy_(spec);
  exec.num_nodes = node_count(spec);
  if (exec.nodes.size() < exec.num_nodes) {
    // Grows only between tasks: no job of this slot is on a server.
    exec.nodes = std::vector<Node>(exec.num_nodes);
  }
  exec.nodes_remaining = exec.num_nodes;
  exec.left_on_stage.assign(servers_.size(), 0);
  for (std::size_t v = 0; v < exec.num_nodes; ++v) {
    exec.nodes[v].job.reset();
    ++exec.left_on_stage[node_stage(exec, v)];
  }
  init_precedence(exec);
  ++started_;

  // Releasing a source submits to a server, whose completions arrive as
  // later events, so the loop never re-enters this Exec.
  for (std::size_t v = 0; v < exec.num_nodes; ++v) {
    if (exec.nodes[v].pending_preds == 0) release_node(exec, v);
  }
}

template <typename Spec>
void TaskRuntime<Spec>::release_node(Exec& exec, std::size_t node) {
  const std::uint64_t job_id = next_job_id_++;
  Node& n = exec.nodes[node];
  n.job.emplace(job_id, exec.priority, node_segments(exec, node));
  // Dynamic policies (EDF/LLF) key off the task's end-to-end absolute
  // deadline; the fixed-priority default ignores this field.
  n.job->absolute_deadline = exec.absolute_deadline;
  n.job->task_id = exec.spec.id;
  n.job->node = node;
  n.released = sim_.now();
  const std::size_t stage = node_stage(exec, node);
  if (stage_obs_ != nullptr) stage_obs_->on_enqueue(stage, n.released);
  servers_[stage]->submit(*n.job);
}

template <typename Spec>
void TaskRuntime<Spec>::on_job_complete(sched::StageServer& stage,
                                        sched::Job& job) {
  const std::uint64_t task_id = job.task_id;
  const std::size_t node = job.node;
  const std::uint32_t slot = slot_of_.find(task_id);
  FRAP_ASSERT(slot != util::IdMap::kNotFound);
  Exec& exec = *slots_[slot];
  FRAP_ASSERT(&*exec.nodes[node].job == &job);
  const std::size_t j = stage.tag();
  FRAP_ASSERT(node_stage(exec, node) == j);

  if (stage_obs_ != nullptr) {
    stage_obs_->on_depart(j, exec.nodes[node].released, sim_.now());
  }
  FRAP_ASSERT(exec.left_on_stage[j] > 0);
  if (--exec.left_on_stage[j] == 0 && tracker_ != nullptr) {
    tracker_->mark_departed(task_id, j);
  }

  FRAP_ASSERT(exec.nodes_remaining > 0);
  --exec.nodes_remaining;
  release_successors(exec, node);
  if (exec.nodes_remaining > 0) return;

  // End-to-end completion. The id leaves the in-flight map first, so the
  // callback sees the task as finished; the slot is freed only after the
  // callback returns, so the spec it reads stays put even if it starts
  // new tasks.
  const Duration response = sim_.now() - exec.release;
  const bool missed = sim_.now() > exec.absolute_deadline + 1e-12;
  ++completed_;
  misses_.record(missed);
  response_.add(response);
  slot_of_.erase(task_id);
  if (on_complete_) on_complete_(exec.spec, response, missed);
  free_slots_.push_back(slot);
}

template <typename Spec>
void TaskRuntime<Spec>::abort_task(std::uint64_t task_id) {
  const std::uint32_t slot = slot_of_.find(task_id);
  if (slot == util::IdMap::kNotFound) return;
  Exec& exec = *slots_[slot];
  for (std::size_t v = 0; v < exec.num_nodes; ++v) {
    Node& n = exec.nodes[v];
    // Unreleased nodes have no job; finished ones are off their server.
    if (!n.job || !n.job->on_server) continue;
    const std::size_t stage = node_stage(exec, v);
    servers_[stage]->abort(*n.job);
    if (stage_obs_ != nullptr) {
      // The shed node still leaves its stage queue; depart it here so the
      // observer's depth gauge conserves (enqueues == departs + in-flight).
      stage_obs_->on_depart(stage, n.released, sim_.now());
    }
  }
  slot_of_.erase(task_id);
  free_slots_.push_back(slot);
  ++aborted_;
}

template <typename Spec>
bool TaskRuntime<Spec>::task_started_executing(std::uint64_t task_id) const {
  const std::uint32_t slot = slot_of_.find(task_id);
  if (slot == util::IdMap::kNotFound) return true;  // conservative
  const Exec& exec = *slots_[slot];
  if (exec.nodes_remaining < exec.num_nodes) return true;
  return std::any_of(exec.nodes.begin(),
                     exec.nodes.begin() +
                         static_cast<std::ptrdiff_t>(exec.num_nodes),
                     [](const Node& n) { return n.job && n.job->has_started; });
}

template <typename Spec>
std::vector<double> TaskRuntime<Spec>::stage_utilizations(Time from,
                                                          Time to) const {
  std::vector<double> u(servers_.size());
  stage_utilizations(from, to, u);
  return u;
}

template <typename Spec>
void TaskRuntime<Spec>::stage_utilizations(Time from, Time to,
                                           std::span<double> out) const {
  FRAP_EXPECTS(out.size() == servers_.size());
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    out[j] = servers_[j]->utilization(from, to);
  }
}

template class TaskRuntime<core::TaskSpec>;
template class TaskRuntime<core::GraphTaskSpec>;

}  // namespace frap::pipeline
