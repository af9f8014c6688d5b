// Arrival-trace capture and replay.
//
// Records an arrival log (time + full TaskSpec) from any generator and
// replays it later — e.g. to compare admission policies on the *identical*
// arrival sequence, or to feed a recorded production trace through the
// simulator. The text format is line-oriented and versioned:
//
//   frap-trace v1 <num_stages>
//   <time> <id> <deadline> <importance> <C_1> ... <C_N>
//
// Critical-section structure is not serialized (replay produces lock-free
// demands); traces are an admission/schedulability tool, not a full
// checkpoint.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/task.h"
#include "util/time.h"

namespace frap::workload {

class PipelineWorkloadGenerator;
class MmppArrivalProcess;

struct ArrivalRecord {
  Time time = kTimeZero;
  core::TaskSpec task;
};

class ArrivalTrace {
 public:
  ArrivalTrace() = default;
  explicit ArrivalTrace(std::size_t num_stages) : num_stages_(num_stages) {}

  std::size_t num_stages() const { return num_stages_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const ArrivalRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<ArrivalRecord>& records() const { return records_; }

  // Appends an arrival. Times must be non-decreasing; the task must have
  // num_stages() stages (the first append fixes the width when the trace
  // was default-constructed).
  void append(Time time, const core::TaskSpec& task);

  // Serialization. save() writes the versioned text format; load() parses
  // it, returning false (and leaving the trace empty) on malformed input.
  void save(std::ostream& os) const;
  bool load(std::istream& is);

  // Total offered load on stage j over the trace horizon: sum of C_ij
  // divided by the time span (0 when fewer than 2 records).
  double offered_load(std::size_t stage) const;

 private:
  std::size_t num_stages_ = 0;
  std::vector<ArrivalRecord> records_;
};

// Capture seams: materialize a stochastic generator's arrival stream as a
// trace, so it can be saved (text) or serialized to the binary wire format
// (src/ingest/trace_codec.h) and replayed bit-deterministically. Each call
// advances the generator's RNG state exactly as a live run would.

// `count` Poisson arrivals starting at `start` (exponential interarrivals
// and task parameters both drawn from `gen`).
ArrivalTrace capture_poisson(PipelineWorkloadGenerator& gen, std::size_t count,
                             Time start = kTimeZero);

// `count` arrivals whose instants come from the MMPP process and whose
// tasks come from `tasks` (interarrival draws of `tasks` are unused).
ArrivalTrace capture_mmpp(MmppArrivalProcess& arrivals,
                          PipelineWorkloadGenerator& tasks, std::size_t count,
                          Time start = kTimeZero);

}  // namespace frap::workload
