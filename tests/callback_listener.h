// Test helper: a StageListener that forwards completions and idle
// transitions to optional callbacks, for tests that only count or
// timestamp them. Production code implements StageListener directly.
#pragma once

#include <functional>
#include <utility>

#include "sched/stage_server.h"

namespace frap::testing {

class CallbackListener final : public sched::StageListener {
 public:
  explicit CallbackListener(std::function<void(sched::Job&)> on_complete,
                            std::function<void()> on_idle = {})
      : on_complete_(std::move(on_complete)), on_idle_(std::move(on_idle)) {}

  void on_job_complete(sched::StageServer& /*stage*/,
                       sched::Job& job) override {
    if (on_complete_) on_complete_(job);
  }
  void on_stage_idle(sched::StageServer& /*stage*/) override {
    if (on_idle_) on_idle_();
  }

 private:
  std::function<void(sched::Job&)> on_complete_;
  std::function<void()> on_idle_;
};

}  // namespace frap::testing
