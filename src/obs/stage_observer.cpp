#include "obs/stage_observer.h"

#include "util/check.h"

namespace frap::obs {

StageObserver::StageObserver(std::size_t num_stages) {
  FRAP_EXPECTS(num_stages >= 1);
  stages_.resize(num_stages);
}

void StageObserver::on_enqueue(std::size_t stage, Time now) {
  FRAP_EXPECTS(stage < stages_.size());
  (void)now;
  Stage& s = stages_[stage];
  ++s.enqueued;
  const std::uint64_t depth = s.enqueued - s.departed;
  if (depth > s.peak_depth) s.peak_depth = depth;
}

void StageObserver::on_depart(std::size_t stage, Time entered, Time now) {
  FRAP_EXPECTS(stage < stages_.size());
  Stage& s = stages_[stage];
  ++s.departed;
  const Duration sojourn = now - entered;
  s.sojourn.add(sojourn);
  if (sojourn > s.max_sojourn) s.max_sojourn = sojourn;
}

std::vector<StageSnapshot> StageObserver::snapshot() const {
  std::vector<StageSnapshot> out;
  out.reserve(stages_.size());
  for (std::size_t j = 0; j < stages_.size(); ++j) {
    const Stage& s = stages_[j];
    out.push_back(StageSnapshot{j, s.enqueued, s.departed,
                                s.enqueued - s.departed, s.peak_depth,
                                s.sojourn, s.max_sojourn});
  }
  return out;
}

}  // namespace frap::obs
