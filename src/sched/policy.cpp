#include "sched/policy.h"

namespace frap::sched {
namespace {

class FixedPriorityPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "fixed"; }
  KeyMode key_mode() const override { return KeyMode::kStatic; }
  double dispatch_key(const JobView& view, Time /*now*/) const override {
    return view.job->priority_value;
  }
  bool supports_locks() const override { return true; }
};

class EdfPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "edf"; }
  KeyMode key_mode() const override { return KeyMode::kDynamic; }
  double dispatch_key(const JobView& view, Time /*now*/) const override {
    return view.job->absolute_deadline;
  }
};

class LlfPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "llf"; }
  KeyMode key_mode() const override { return KeyMode::kDynamic; }
  double dispatch_key(const JobView& view, Time now) const override {
    return view.job->absolute_deadline - now - view.remaining_work;
  }
};

}  // namespace

const SchedulingPolicy& fixed_priority_policy() {
  static const FixedPriorityPolicy policy;
  return policy;
}

const SchedulingPolicy& edf_policy() {
  static const EdfPolicy policy;
  return policy;
}

const SchedulingPolicy& llf_policy() {
  static const LlfPolicy policy;
  return policy;
}

}  // namespace frap::sched
