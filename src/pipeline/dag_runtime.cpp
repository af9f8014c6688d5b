#include "pipeline/dag_runtime.h"

#include <string>

#include "core/task_graph_shape.h"
#include "util/check.h"

namespace frap::pipeline {

DagRuntime::DagRuntime(sim::Simulator& sim, std::size_t num_resources,
                       core::SyntheticUtilizationTracker* tracker,
                       const sched::SchedulingPolicy& sched_policy)
    : sim_(sim),
      tracker_(tracker),
      policy_([](const core::GraphTaskSpec& s) { return s.deadline; }) {
  FRAP_EXPECTS(num_resources >= 1);
  FRAP_EXPECTS(tracker_ == nullptr ||
               tracker_->num_stages() == num_resources);
  servers_.reserve(num_resources);
  for (std::size_t k = 0; k < num_resources; ++k) {
    auto server = std::make_unique<sched::StageServer>(
        sim_, "resource-" + std::to_string(k), sched_policy);
    server->set_tag(k);
    server->set_listener(this);
    servers_.push_back(std::move(server));
  }
}

void DagRuntime::on_job_complete(sched::StageServer& /*stage*/,
                                 sched::Job& job) {
  on_node_complete(job);
}

void DagRuntime::on_stage_idle(sched::StageServer& stage) {
  if (tracker_ != nullptr) tracker_->on_stage_idle(stage.tag());
}

void DagRuntime::set_priority_policy(
    std::function<sched::PriorityValue(const core::GraphTaskSpec&)> policy) {
  FRAP_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
}

void DagRuntime::set_stage_observer(obs::StageObserver* observer) {
  FRAP_EXPECTS(observer == nullptr ||
               observer->num_stages() == servers_.size());
  stage_obs_ = observer;
}

std::size_t DagRuntime::node_resource(const Exec& exec, std::size_t node) {
  return exec.spec.shape != nullptr ? exec.spec.shape->node_resource()[node]
                                    : exec.spec.nodes[node].resource;
}

void DagRuntime::start_task(const core::GraphTaskSpec& spec,
                            Time absolute_deadline) {
  // A canonical spec carries no layout of its own: the shape holds it all
  // (resources, segments, indegrees, CSR adjacency), and the registry
  // validated it at intern time, so valid() is O(1), the per-edge
  // successor lists are never rebuilt, and the Exec's copy is O(1).
  const bool interned = spec.shape != nullptr;
  if (interned) FRAP_EXPECTS(spec.nodes.empty() && spec.edges.empty());
  FRAP_EXPECTS(spec.valid(servers_.size()));
  FRAP_EXPECTS(execs_.find(spec.id) == execs_.end());

  const std::size_t n = spec.num_nodes();
  Exec exec;
  exec.spec = spec;
  exec.release = sim_.now();
  exec.absolute_deadline = absolute_deadline;
  exec.priority = policy_(spec);
  exec.nodes_remaining = n;
  exec.jobs.resize(n);
  exec.node_release.assign(n, kTimeZero);
  exec.nodes_left_on_resource.assign(servers_.size(), 0);
  if (interned) {
    const auto indeg = spec.shape->indegree();
    exec.pending_preds.assign(indeg.begin(), indeg.end());
  } else {
    exec.pending_preds.assign(n, 0);
    exec.successors.assign(n, {});
    for (const auto& e : spec.edges) {
      ++exec.pending_preds[e.to];
      exec.successors[e.from].push_back(e.to);
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    ++exec.nodes_left_on_resource[node_resource(exec, v)];
  }

  auto [it, inserted] = execs_.emplace(spec.id, std::move(exec));
  FRAP_ASSERT(inserted);
  ++started_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kRelease, spec.id);
  }

  // Release all sources. Collect first: release_node submits to servers,
  // which can complete zero-length nodes synchronously-in-time via events,
  // but never re-enters this Exec during the loop.
  for (std::size_t i = 0; i < n; ++i) {
    if (it->second.pending_preds[i] == 0) release_node(it->second, i);
  }
}

void DagRuntime::release_node(Exec& exec, std::size_t node) {
  const std::uint64_t job_id = next_job_id_++;
  std::vector<sched::Segment> segments;
  if (exec.spec.shape != nullptr) {
    const auto segs = exec.spec.shape->node_segments(node);
    segments.assign(segs.begin(), segs.end());
  } else {
    segments = exec.spec.nodes[node].demand.make_segments();
  }
  exec.jobs[node] =
      std::make_unique<sched::Job>(job_id, exec.priority, std::move(segments));
  exec.jobs[node]->absolute_deadline = exec.absolute_deadline;
  job_context_.emplace(job_id, JobContext{exec.spec.id, node});
  exec.node_release[node] = sim_.now();
  const std::size_t resource = node_resource(exec, node);
  if (stage_obs_ != nullptr) stage_obs_->on_enqueue(resource, sim_.now());
  servers_[resource]->submit(*exec.jobs[node]);
}

void DagRuntime::on_node_complete(sched::Job& job) {
  auto jt = job_context_.find(job.id);
  FRAP_ASSERT(jt != job_context_.end());
  const JobContext ctx = jt->second;
  job_context_.erase(jt);

  auto et = execs_.find(ctx.task_id);
  FRAP_ASSERT(et != execs_.end());
  Exec& exec = et->second;

  const std::size_t resource = node_resource(exec, ctx.node);
  if (stage_obs_ != nullptr) {
    stage_obs_->on_depart(resource, exec.node_release[ctx.node], sim_.now());
  }
  FRAP_ASSERT(exec.nodes_left_on_resource[resource] > 0);
  if (--exec.nodes_left_on_resource[resource] == 0) {
    if (tracker_ != nullptr) tracker_->mark_departed(ctx.task_id, resource);
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), TraceEventKind::kStageDeparture,
                     ctx.task_id, resource);
    }
  }

  FRAP_ASSERT(exec.nodes_remaining > 0);
  --exec.nodes_remaining;
  if (exec.spec.shape != nullptr) {
    for (std::uint32_t succ : exec.spec.shape->successors(ctx.node)) {
      FRAP_ASSERT(exec.pending_preds[succ] > 0);
      if (--exec.pending_preds[succ] == 0) release_node(exec, succ);
    }
  } else {
    for (std::size_t succ : exec.successors[ctx.node]) {
      FRAP_ASSERT(exec.pending_preds[succ] > 0);
      if (--exec.pending_preds[succ] == 0) release_node(exec, succ);
    }
  }

  if (exec.nodes_remaining == 0) {
    const Duration response = sim_.now() - exec.release;
    const bool missed = sim_.now() > exec.absolute_deadline + 1e-12;
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), TraceEventKind::kComplete, ctx.task_id,
                     missed ? 1 : 0);
    }
    ++completed_;
    misses_.record(missed);
    response_.add(response);
    if (on_complete_) {
      core::GraphTaskSpec spec = std::move(exec.spec);
      execs_.erase(et);
      on_complete_(spec, response, missed);
    } else {
      execs_.erase(et);
    }
  }
}

void DagRuntime::abort_task(std::uint64_t task_id) {
  auto et = execs_.find(task_id);
  if (et == execs_.end()) return;
  Exec& exec = et->second;
  for (std::size_t node = 0; node < exec.jobs.size(); ++node) {
    auto& job = exec.jobs[node];
    if (job == nullptr) continue;  // node never released
    if (job->on_server) {
      const std::size_t resource = node_resource(exec, node);
      servers_[resource]->abort(*job);
      if (stage_obs_ != nullptr) {
        stage_obs_->on_depart(resource, exec.node_release[node], sim_.now());
      }
    }
    job_context_.erase(job->id);
  }
  execs_.erase(et);
  ++aborted_;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), TraceEventKind::kShed, task_id);
  }
}

bool DagRuntime::task_started_executing(std::uint64_t task_id) const {
  auto et = execs_.find(task_id);
  if (et == execs_.end()) return true;  // conservative
  const Exec& exec = et->second;
  if (exec.nodes_remaining < exec.spec.num_nodes()) return true;
  for (const auto& job : exec.jobs) {
    if (job != nullptr && job->has_started) return true;
  }
  return false;
}

std::vector<double> DagRuntime::resource_utilizations(Time from,
                                                      Time to) const {
  std::vector<double> u(servers_.size());
  resource_utilizations(from, to, u);
  return u;
}

void DagRuntime::resource_utilizations(Time from, Time to,
                                       std::span<double> out) const {
  FRAP_EXPECTS(out.size() == servers_.size());
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    out[k] = servers_[k]->meter().utilization(from, to);
  }
}

}  // namespace frap::pipeline
