// Per-stage pipeline gauges: queue depth (current / peak), departures, a
// sojourn-time histogram (enqueue -> departure, in simulated seconds) and
// the running maximum sojourn.
//
// Together with the completion callback and aborted() count, this is the
// runtime's lifecycle feed. Fed by the task runtime (pipeline/
// pipeline_runtime.h), a single-threaded event simulator, so the observer
// is deliberately plain data — no atomics, no locks. Times are SIMULATED
// seconds (frap::Time), not wall clock: stage sojourn is a property of the
// modelled pipeline, not of the host machine. For a pipeline a stage
// sojourn is exactly the Theorem 1 residence L_j, so max_sojourn checks the
// per-stage bound L_j <= f(U_j) * D_max directly.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/histogram.h"
#include "util/time.h"

namespace frap::obs {

struct StageSnapshot {
  std::size_t stage = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t departed = 0;
  std::uint64_t queue_depth = 0;  // enqueued - departed
  std::uint64_t peak_depth = 0;
  metrics::Histogram sojourn;
  Duration max_sojourn = 0;  // longest enqueue -> departure seen
};

class StageObserver {
 public:
  explicit StageObserver(std::size_t num_stages);

  StageObserver(const StageObserver&) = delete;
  StageObserver& operator=(const StageObserver&) = delete;

  std::size_t num_stages() const { return stages_.size(); }

  // A task entered stage j's queue (or began service) at simulated `now`.
  void on_enqueue(std::size_t stage, Time now);

  // The task that entered at `entered` left stage j at simulated `now`.
  void on_depart(std::size_t stage, Time entered, Time now);

  std::vector<StageSnapshot> snapshot() const;

 private:
  // Sojourn histogram range: [0, kSojournHi) simulated seconds.
  static constexpr double kSojournHi = 1.0;
  static constexpr std::size_t kSojournBuckets = 50;

  struct Stage {
    std::uint64_t enqueued = 0;
    std::uint64_t departed = 0;
    std::uint64_t peak_depth = 0;
    metrics::Histogram sojourn;
    Duration max_sojourn = 0;
    Stage() : sojourn(0.0, kSojournHi, kSojournBuckets) {}
  };

  std::vector<Stage> stages_;
};

}  // namespace frap::obs
