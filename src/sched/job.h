// The unit of execution on one stage server.
//
// A job is what one subtask becomes once it reaches its stage: a fixed
// priority plus a sequence of execution segments. A segment may require a
// lock for its whole duration (a critical section, Sec. 3.2 of the paper);
// locks are stage-local and non-nested, which matches the paper's blocking
// model where B_ij bounds a single critical section per stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sched/priority.h"
#include "util/time.h"

namespace frap::sched {

inline constexpr int kNoLock = -1;

struct Segment {
  Duration length = 0;
  int lock = kNoLock;  // kNoLock, or a stage-local lock id >= 0
};

class StageServer;

// Plain state holder; all scheduling decisions live in StageServer. Jobs are
// owned by the runtime that created them and must outlive their time on the
// server. A job never moves, so its segment view stays valid.
struct Job {
  // Owning: the job keeps `segs` (tests, benches and examples).
  Job(std::uint64_t id_, PriorityValue priority, std::vector<Segment> segs)
      : id(id_),
        priority_value(priority),
        owned_(std::move(segs)),
        segments(owned_) {}

  // Borrowing: `segs` must outlive the job's time on a server. The task
  // runtime lends its spec's (or interned shape's) segments, so releasing
  // a node copies nothing.
  Job(std::uint64_t id_, PriorityValue priority,
      std::span<const Segment> segs)
      : id(id_), priority_value(priority), segments(segs) {}

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  // Total execution demand over all segments.
  Duration total_length() const {
    Duration t = 0;
    for (const auto& s : segments) t += s.length;
    return t;
  }

  const std::uint64_t id;
  const PriorityValue priority_value;

 private:
  std::vector<Segment> owned_;  // empty for a borrowing job

 public:
  const std::span<const Segment> segments;

  // Owner, set by the runtime that created the job: its task's id and the
  // job's node index within that task. Completion handlers read them
  // instead of looking the job up.
  std::uint64_t task_id = 0;
  std::size_t node = 0;

  // Absolute deadline of the job's end-to-end task instance, set by the
  // runtime before submit. Dynamic policies (EDF/LLF) derive dispatch keys
  // from it; the fixed-priority default ignores it.
  Time absolute_deadline = kTimeZero;

  // --- state managed by StageServer ---
  PriorityKey key{0, 0};         // assigned at submit (adds FIFO tiebreak)
  std::size_t segment_index = 0; // current segment
  Duration remaining = 0;        // remaining time in current segment
  int held_lock = kNoLock;       // lock currently held, if any
  bool on_server = false;        // submitted and not yet complete/aborted
  bool has_started = false;      // ever occupied the processor
};

}  // namespace frap::sched
