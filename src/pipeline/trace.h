// Execution trace capture: a typed, queryable log of task lifecycle events.
//
// Used for debugging schedules, validating timelines in tests, and
// exporting runs for offline analysis. The runtimes emit Release /
// StageDeparture / Complete, and Shed from abort_task; admission-side
// events (Arrival, Admit, Reject) are recorded by whichever controller the
// experiment wires up.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "util/time.h"

namespace frap::pipeline {

enum class TraceEventKind {
  kArrival,         // task arrived at the admission controller
  kAdmit,           // admission accepted it
  kReject,          // admission (or its timeout) rejected it
  kRelease,         // task entered stage 1 / its source nodes
  kStageDeparture,  // finished one stage (detail = stage index)
  kComplete,        // left the pipeline (detail = 1 if deadline missed)
  kShed,            // aborted by load shedding
};

// Human-readable name, e.g. for dumps.
const char* to_string(TraceEventKind kind);

struct TraceEvent {
  Time time = kTimeZero;
  TraceEventKind kind = TraceEventKind::kArrival;
  std::uint64_t task_id = 0;
  std::uint64_t detail = 0;  // stage index / missed flag / free-form
};

class TraceLog {
 public:
  // `capacity` caps memory: once full, the OLDEST events are dropped (the
  // log keeps a moving tail of the run). 0 = unbounded.
  explicit TraceLog(std::size_t capacity = 0) : capacity_(capacity) {}

  void record(Time t, TraceEventKind kind, std::uint64_t task_id,
              std::uint64_t detail = 0);

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  const TraceEvent& operator[](std::size_t i) const { return events_[i]; }

  // All events for one task, in time order.
  std::vector<TraceEvent> for_task(std::uint64_t task_id) const;

  // Count of events of one kind.
  std::size_t count(TraceEventKind kind) const;

  // Tab-separated dump: time, kind, task, detail.
  void dump(std::ostream& os) const;

  void clear();

 private:
  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // ring start when capacity_ > 0 and full
  std::uint64_t dropped_ = 0;
};

}  // namespace frap::pipeline
