#include "service/sharded_admission.h"

#include <algorithm>
#include <cmath>

#include "core/stage_delay.h"
#include "util/check.h"
#include "util/math.h"

namespace frap::service {

namespace {

using core::AdmissionDecision;

// Scaled per-stage utilization above this is treated as saturated in the
// weight-search arithmetic (the exact test uses u >= 1; the margin keeps the
// bisection away from f's pole).
constexpr double kMaxScaledUtil = 0.999;

// Each weight >= kMinWeight and Σ w = 1, up to accumulated FP noise.
constexpr double kWeightTolerance = 1e-9;

}  // namespace

ShardedAdmissionService::Shard::Shard(const core::FeasibleRegion& region,
                                      double w)
    : tracker(sim, region.num_stages()),
      controller(sim, tracker, region),
      weight(w),
      guard(region),
      inv_weight(1.0 / w) {
  tracker.set_view_scale(1.0 / w);
}

ShardedAdmissionService::ShardedAdmissionService(core::FeasibleRegion region,
                                                 ShardedAdmissionConfig config)
    : region_(std::move(region)), cfg_(config) {
  FRAP_EXPECTS(cfg_.num_shards >= 1);
  FRAP_EXPECTS(kMinWeight * static_cast<double>(cfg_.num_shards) <= 1.0);
  const double equal = 1.0 / static_cast<double>(cfg_.num_shards);
  shards_.reserve(cfg_.num_shards);
  for (std::size_t k = 0; k < cfg_.num_shards; ++k) {
    shards_.push_back(std::make_unique<Shard>(region_, equal));
  }
}

core::AdmissionDecision ShardedAdmissionService::try_admit(
    const core::TaskSpec& spec, Time now) {
  const std::size_t k = route(spec.id);
  Shard& sh = *shards_[k];

  if (cfg_.enable_atomic_fast_path) {
    // No lock taken here. Fast rejects are disabled while tracing so every
    // traced decision flows through a recording sink.
    // frap:contract(order: relaxed; pairs with the release store in
    // attach_observer -- a stale false only lets one more reject go
    // untraced during attach, never corrupts a decision)
    const bool allow_fast_reject = !tracing_.load(std::memory_order_relaxed);
    const AtomicAdmissionGuard::FastResult fast =
        // frap:contract(order: relaxed; a steal-stale inv_weight only
        // yields kInconclusive, and the exact mutex path re-reads it)
        sh.guard.classify(spec, sh.inv_weight.load(std::memory_order_relaxed),
                          now, allow_fast_reject);
    switch (fast.verdict) {
      case AtomicAdmissionGuard::Verdict::kAdmit: {
        // The CAS reserved ceil(d_hi) quanta; the shard mutex is taken only
        // to COMMIT, where the exact test is the final authority (a
        // concurrent weight change can invalidate the reservation's bound).
        AdmissionDecision d;
        {
          std::scoped_lock lk(sh.mu);
          const Time eff = std::max(now, sh.sim.now());
          sh.sim.run_until(eff);
          d = sh.controller.try_admit_tagged(
              spec, eff, AdmissionDecision::Reason::kAtomicFastPath);
          sync_guard_locked(sh, fast.reserved);
        }
        if (d.admitted) {
          sh.atomic_admits.increment();
          return d;
        }
        // Reservation degraded by a weight race: same as a local reject.
        sh.atomic_inconclusive.increment();
        if (cfg_.enable_fallback) {
          d = fallback(k, spec, now);
        } else {
          sh.rejects.increment();
        }
        return d;
      }
      case AtomicAdmissionGuard::Verdict::kReject: {
        if (!cfg_.enable_fallback) {
          sh.atomic_rejects.increment();
          return fast_reject_decision(fast, now);
        }
        // The home shard provably rejects; decide globally (the fallback
        // re-tests every shard, home included, under the exact predicate).
        return fallback(k, spec, now);
      }
      case AtomicAdmissionGuard::Verdict::kInconclusive:
        sh.atomic_inconclusive.increment();
        break;  // inside the rounding slack: exact mutex path below
    }
  }

  const AdmissionDecision::Reason admit_tag =
      cfg_.enable_atomic_fast_path
          ? AdmissionDecision::Reason::kSlowPathFallback
          : AdmissionDecision::Reason::kAdmitted;
  AdmissionDecision d;
  {
    std::scoped_lock lk(sh.mu);
    // Per-shard time is monotone: a caller presenting a timestamp older
    // than the shard clock is anchored at the shard clock.
    const Time eff = std::max(now, sh.sim.now());
    sh.sim.run_until(eff);
    d = sh.controller.try_admit_tagged(spec, eff, admit_tag);
    sync_guard_locked(sh, 0);
  }

  if (d.admitted) {
    sh.admits.increment();
  } else if (cfg_.enable_fallback) {
    d = fallback(k, spec, now);
  } else {
    sh.rejects.increment();
  }
  return d;
}

void ShardedAdmissionService::sync_guard_locked(Shard& sh,
                                                std::uint64_t released_quanta) {
  if (!cfg_.enable_atomic_fast_path) return;
  sh.guard.reconcile_locked(sh.tracker.cached_lhs(), sh.sim.next_event_at(),
                            released_quanta);
}

void ShardedAdmissionService::sync_all_guards_locked() {
  for (const auto& sh : shards_) sync_guard_locked(*sh, 0);
}

core::AdmissionDecision ShardedAdmissionService::fast_reject_decision(
    const AtomicAdmissionGuard::FastResult& fast, Time now) const {
  AdmissionDecision d;
  d.admitted = false;
  d.reason = fast.saturates ? AdmissionDecision::Reason::kStageSaturated
                            : AdmissionDecision::Reason::kRegionFull;
  d.bound = region_.bound();
  d.arrival = now;
  d.decided_at = now;
  d.lhs_before = fast.lhs_floor;
  d.lhs_with_task =
      fast.saturates ? util::kInf : fast.lhs_floor + fast.delta_floor;
  return d;
}

Time ShardedAdmissionService::advance_all_locked(Time now) {
  Time eff = now;
  for (const auto& sh : shards_) eff = std::max(eff, sh->sim.now());
  for (const auto& sh : shards_) sh->sim.run_until(eff);
  return eff;
}

std::vector<std::size_t> ShardedAdmissionService::shards_by_headroom_locked()
    const {
  // Largest scaled headroom (bound - L_k) first; a shard at or beyond the
  // boundary sorts last.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    order.emplace_back(region_.bound() - shards_[k]->tracker.cached_lhs(), k);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  std::vector<std::size_t> idx;
  idx.reserve(order.size());
  for (const auto& [headroom, k] : order) idx.push_back(k);
  return idx;
}

std::vector<double> ShardedAdmissionService::true_utilizations_locked() const {
  std::vector<double> u(region_.num_stages(), 0.0);
  for (const auto& sh : shards_) {
    for (std::size_t j = 0; j < u.size(); ++j) {
      u[j] += sh->tracker.unscaled_load(j);
    }
  }
  return u;
}

double ShardedAdmissionService::min_feasible_weight_locked(
    const Shard& sh) const {
  const std::size_t n = region_.num_stages();
  std::vector<double> x(n);  // true per-stage load of this shard
  for (std::size_t j = 0; j < n; ++j) x[j] = sh.tracker.unscaled_load(j);
  // Evaluates exactly what the tracker's LHS cache holds once the shard
  // is viewed at weight w (same products, same summation order), so a
  // donor shrunk to the returned weight stays inside its own bound.
  const auto feasible = [&](double w) {
    const double scale = 1.0 / w;
    double scaled_lhs = 0;
    for (double xj : x) {
      const double u = xj * scale;
      if (u >= kMaxScaledUtil) return false;
      scaled_lhs += core::stage_delay_factor(u);
    }
    return region_.admits(scaled_lhs);
  };

  if (feasible(kMinWeight)) return kMinWeight;
  // feasible is monotone in w and holds at the current weight (the shard's
  // running LHS is kept within the bound by every admission); bisect to the
  // boundary from there.
  double lo = kMinWeight;
  double hi = sh.weight;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? hi : lo) = mid;
  }
  return hi;
}

bool ShardedAdmissionService::fits_at_weight_locked(
    const Shard& sh, const std::vector<double>& add, double w) const {
  double scaled_lhs = 0;
  for (std::size_t j = 0; j < add.size(); ++j) {
    const double u = (sh.tracker.unscaled_load(j) + add[j]) / w;
    if (u >= kMaxScaledUtil) return false;
    scaled_lhs += core::stage_delay_factor(u);
  }
  return region_.admits(scaled_lhs);
}

void ShardedAdmissionService::apply_weight_locked(Shard& sh, double w_new) {
  if (util::almost_equal(sh.weight, w_new)) return;
  // Tracked contributions are stored unscaled; the move only changes the
  // tracker's view scale (an O(stages) cache rebuild, no task record).
  sh.tracker.set_view_scale(1.0 / w_new);
  sh.weight = w_new;
  // frap:contract(order: relaxed; sync_guard_locked republishes the guard
  // right after, which is what makes the new weight authoritative)
  sh.inv_weight.store(1.0 / w_new, std::memory_order_relaxed);
  // The scaled committed LHS just moved; republish the guard immediately so
  // the lock-free view is never optimistic about the new weight.
  sync_guard_locked(sh, 0);
}

core::AdmissionDecision ShardedAdmissionService::fallback(
    std::size_t origin, const core::TaskSpec& spec, Time now) {
  // Lock order: global_mu_, then every shard mutex in index order. Hot-path
  // holders only ever hold their own shard's mutex and never block on
  // global_mu_, so the fixed order cannot deadlock.
  std::scoped_lock g(global_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sh : shards_) locks.emplace_back(sh->mu);

  const Time eff = advance_all_locked(now);
  AdmissionDecision d = fallback_decide_locked(origin, spec, now, eff);
  // advance_all may have drained expiries and the decide pass may have
  // admitted / moved weights; republish every guard before dropping the
  // locks.
  sync_all_guards_locked();
  if (observer_ != nullptr) {
    // The admitting shard's sink already recorded the local decision (with
    // its pre-override reason); the service-level span carries the FINAL
    // reason so the two can be correlated by task_id.
    std::uint16_t touched = 0;
    for (double c : spec.contributions()) {
      if (c > 0) ++touched;
    }
    observer_->service_sink().record_span(obs::SpanKind::kFallback, d,
                                          spec.id, touched);
  }
  return d;
}

core::AdmissionDecision ShardedAdmissionService::fallback_decide_locked(
    std::size_t origin, const core::TaskSpec& spec, Time now, Time eff) {
  const std::vector<std::size_t> order = shards_by_headroom_locked();

  // Pass 1: some shard may already have local headroom for the task (the
  // home shard only sees its own slice).
  for (std::size_t k : order) {
    Shard& sh = *shards_[k];
    if (!sh.controller.test(spec)) continue;
    AdmissionDecision d = sh.controller.try_admit(spec, eff);
    FRAP_ASSERT(d.admitted);  // test() and try_admit() share the predicate
    d.reason = AdmissionDecision::Reason::kQuotaFallback;
    sh.fallback_admits.increment();
    return d;
  }

  // A task that fails the TRUE global test is rejected here. Every sharded
  // admit is a global admit (Jensen, docs/admission_service.md), so pass 2
  // could never admit it; this skips its weight bisections. The same pair
  // is reported if pass 2 fails: quota moves leave the stored loads as
  // they are.
  const std::vector<double> add = spec.contributions();
  std::vector<double> u = true_utilizations_locked();
  const double lhs_before = region_.lhs(u);
  for (std::size_t j = 0; j < u.size(); ++j) u[j] += add[j];
  const double lhs_with_task = region_.lhs(u);
  const auto reject = [&] {
    AdmissionDecision d;
    d.admitted = false;
    d.reason = AdmissionDecision::Reason::kQuotaFallbackRejected;
    d.bound = region_.bound();
    d.arrival = now;
    d.decided_at = eff;
    d.lhs_before = lhs_before;
    d.lhs_with_task = lhs_with_task;
    shards_[origin]->fallback_rejects.increment();
    return d;
  };
  if (!region_.admits(lhs_with_task)) return reject();

  // Pass 2: steal unused quota — shrink every donor to its minimum feasible
  // weight and grow one receiver until the task fits in its slice.
  std::vector<double> minw(shards_.size());
  double total_minw = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    minw[k] = min_feasible_weight_locked(*shards_[k]);
    total_minw += minw[k];
  }
  for (std::size_t r : order) {
    const double w_r = 1.0 - (total_minw - minw[r]);
    if (w_r < minw[r]) continue;  // donors leave no room to grow
    if (!fits_at_weight_locked(*shards_[r], add, w_r)) continue;

    std::vector<double> w = minw;
    w[r] = w_r;
    // The one place weights change: every weight finite and at or above
    // the floor, and the split sums to 1.
    double sum = 0;
    for (double wk : w) {
      FRAP_EXPECTS(std::isfinite(wk));
      FRAP_EXPECTS(wk + kWeightTolerance >= kMinWeight);
      sum += wk;
    }
    FRAP_EXPECTS(std::fabs(sum - 1.0) <= kWeightTolerance);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      apply_weight_locked(*shards_[k], w[k]);
    }
    AdmissionDecision d = shards_[r]->controller.try_admit(spec, eff);
    if (d.admitted) {
      d.reason = AdmissionDecision::Reason::kQuotaFallback;
      shards_[r]->fallback_admits.increment();
      return d;
    }
    // The arithmetic precheck and the controller's cached view disagreed at
    // the boundary (FP); the weight move is harmless — fall through to
    // reject.
    break;
  }

  // No weight split fits the task; report the TRUE global LHS pair.
  return reject();
}

ServiceStats ShardedAdmissionService::stats() const {
  ServiceStats s;
  s.shards.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStats out;
    out.admits = sh->admits.value();
    out.rejects = sh->rejects.value();
    out.fallback_admits = sh->fallback_admits.value();
    out.fallback_rejects = sh->fallback_rejects.value();
    out.atomic_admits = sh->atomic_admits.value();
    out.atomic_rejects = sh->atomic_rejects.value();
    out.atomic_inconclusive = sh->atomic_inconclusive.value();
    // Every try_admit lands in exactly one of these counters, whichever
    // path decided it.
    s.decisions += out.admits + out.rejects + out.fallback_admits +
                   out.fallback_rejects + out.atomic_admits +
                   out.atomic_rejects;
    {
      std::scoped_lock lk(sh->mu);
      out.weight = sh->weight;
      out.live_tasks = sh->tracker.live_tasks();
    }
    s.shards.push_back(out);
  }
  return s;
}

void ShardedAdmissionService::enable_tracing(const obs::SinkConfig& sink_cfg,
                                             const obs::Clock* clock) {
  std::scoped_lock g(global_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sh : shards_) locks.emplace_back(sh->mu);
  FRAP_EXPECTS(observer_ == nullptr);
  observer_ = std::make_unique<obs::Observer>(shards_.size(), sink_cfg, clock);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->controller.set_sink(&observer_->sink(k));
  }
  // Published last: once visible, the fast path stops issuing lock-free
  // rejects so every decision reaches a recording sink.
  // frap:contract(order: release publish of the sink wiring above; pairs
  // with the fast path's tracing_ load so no traced decision misses a sink)
  tracing_.store(true, std::memory_order_release);
}

obs::Observer& ShardedAdmissionService::observer() {
  FRAP_EXPECTS(observer_ != nullptr);
  return *observer_;
}

obs::MetricsSnapshot ShardedAdmissionService::obs_snapshot() const {
  FRAP_EXPECTS(observer_ != nullptr);
  std::scoped_lock g(global_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sh : shards_) locks.emplace_back(sh->mu);
  return observer_->snapshot();
}

std::vector<double> ShardedAdmissionService::global_utilizations(Time now) {
  std::scoped_lock g(global_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sh : shards_) locks.emplace_back(sh->mu);
  advance_all_locked(now);
  sync_all_guards_locked();
  return true_utilizations_locked();
}

}  // namespace frap::service
