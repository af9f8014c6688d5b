#include "obs/observer.h"

#include <algorithm>
#include <tuple>

#include "util/check.h"

namespace frap::obs {

Observer::Observer(std::size_t num_sinks, const SinkConfig& cfg,
                   const Clock* clock, std::size_t num_stages)
    : clock_(clock != nullptr ? clock : &monotonic_clock()) {
  FRAP_EXPECTS(num_sinks >= 1);
  FRAP_EXPECTS(num_sinks < kServiceShard);
  sinks_.reserve(num_sinks);
  for (std::size_t k = 0; k < num_sinks; ++k) {
    sinks_.push_back(std::make_unique<DecisionSink>(
        static_cast<std::uint16_t>(k), cfg, *clock_));
  }
  service_sink_ = std::make_unique<DecisionSink>(kServiceShard, cfg, *clock_);
  if (num_stages > 0) {
    stage_observer_ = std::make_unique<StageObserver>(num_stages);
  }
}

MetricsSnapshot Observer::snapshot() const {
  MetricsSnapshot snap;
  snap.sinks.reserve(sinks_.size() + 1);
  for (const auto& s : sinks_) snap.sinks.push_back(s->snapshot());
  snap.sinks.push_back(service_sink_->snapshot());
  if (stage_observer_ != nullptr) snap.stages = stage_observer_->snapshot();
  return snap;
}

std::vector<DecisionEvent> Observer::trace() const {
  std::vector<DecisionEvent> all;
  for (const auto& s : sinks_) {
    const auto events = s->ring().snapshot();
    all.insert(all.end(), events.begin(), events.end());
  }
  const auto spans = service_sink_->ring().snapshot();
  all.insert(all.end(), spans.begin(), spans.end());
  std::sort(all.begin(), all.end(),
            [](const DecisionEvent& a, const DecisionEvent& b) {
              return std::tie(a.decided_at, a.shard, a.ticket) <
                     std::tie(b.decided_at, b.shard, b.ticket);
            });
  return all;
}

}  // namespace frap::obs
